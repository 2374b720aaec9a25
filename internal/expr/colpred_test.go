package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xprs/internal/storage"
)

// Differential oracle: the columnar predicate path must agree with the
// row-at-a-time reference evaluator — same selected rows, same errors —
// over random schemas, random int4/text data, random expression trees,
// and every selection density (empty, sparse, ~50%, full).

// randSchema builds a random NULL-free int4/text schema of 1..6 columns
// with at least one int4 column (comparison targets).
func randSchema(rng *rand.Rand) storage.Schema {
	n := 1 + rng.Intn(6)
	cols := make([]storage.Column, n)
	intAt := rng.Intn(n)
	for i := range cols {
		typ := storage.Int4
		if i != intAt && rng.Intn(2) == 0 {
			typ = storage.Text
		}
		cols[i] = storage.Column{Name: fmt.Sprintf("c%d", i), Typ: typ}
	}
	return storage.NewSchema(cols...)
}

// randRows generates rows with small int domains (so predicates hit all
// densities) and short text values (so col-col text compares collide).
func randRows(rng *rand.Rand, s storage.Schema, n int) []storage.Tuple {
	words := []string{"", "a", "ab", "b", "ba", "abc", "zz"}
	out := make([]storage.Tuple, n)
	for i := range out {
		vals := make([]storage.Value, s.Len())
		for c := range vals {
			if s.Cols[c].Typ == storage.Int4 {
				vals[c] = storage.IntVal(int32(rng.Intn(10) - 5))
			} else {
				vals[c] = storage.TextVal(words[rng.Intn(len(words))])
			}
		}
		out[i] = storage.Tuple{Vals: vals}
	}
	return out
}

// randExpr builds a random predicate tree. Depth-0 leaves are
// comparisons; interior nodes are AND/OR/NOT. mismatch injects
// deliberately ill-typed comparisons so the error paths get compared
// too.
func randExpr(rng *rand.Rand, s storage.Schema, depth int, mismatch bool) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		op := CmpOp(rng.Intn(6))
		li := rng.Intn(s.Len())
		switch rng.Intn(4) {
		case 0: // col OP const
			if s.Cols[li].Typ == storage.Text && !mismatch {
				// retarget to an int4 column for a compilable shape
				for s.Cols[li].Typ != storage.Int4 {
					li = rng.Intn(s.Len())
				}
			}
			return Cmp{Op: op, L: Col{Idx: li}, R: Const{Val: storage.IntVal(int32(rng.Intn(10) - 5))}}
		case 1: // const OP col
			if s.Cols[li].Typ == storage.Text && !mismatch {
				for s.Cols[li].Typ != storage.Int4 {
					li = rng.Intn(s.Len())
				}
			}
			return Cmp{Op: op, L: Const{Val: storage.IntVal(int32(rng.Intn(10) - 5))}, R: Col{Idx: li}}
		case 2: // col OP col
			ri := rng.Intn(s.Len())
			if !mismatch && s.Cols[li].Typ != s.Cols[ri].Typ {
				ri = li
			}
			return Cmp{Op: op, L: Col{Idx: li}, R: Col{Idx: ri}}
		default: // uncompiled shape: const OP const forces interpreted fallback
			return Cmp{Op: op, L: Const{Val: storage.IntVal(int32(rng.Intn(4)))},
				R: Const{Val: storage.IntVal(int32(rng.Intn(4)))}}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return Logic{Op: Not, Kids: []Expr{randExpr(rng, s, depth-1, mismatch)}}
	case 1:
		k := 2 + rng.Intn(2)
		kids := make([]Expr, k)
		for i := range kids {
			kids[i] = randExpr(rng, s, depth-1, mismatch)
		}
		return Logic{Op: And, Kids: kids}
	default:
		k := 2 + rng.Intn(2)
		kids := make([]Expr, k)
		for i := range kids {
			kids[i] = randExpr(rng, s, depth-1, mismatch)
		}
		return Logic{Op: Or, Kids: kids}
	}
}

// rowReference runs the interpreted evaluator over the selected rows
// and returns the surviving physical row indexes (the oracle).
func rowReference(e Expr, rows []storage.Tuple, sel []int32) ([]int32, error) {
	var out []int32
	n := len(rows)
	if sel != nil {
		n = len(sel)
	}
	for pos := 0; pos < n; pos++ {
		row := pos
		if sel != nil {
			row = int(sel[pos])
		}
		ok, err := Qualifies(e, rows[row])
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, int32(row))
		}
	}
	return out, nil
}

func toColBatch(s storage.Schema, rows []storage.Tuple) *storage.ColBatch {
	b := storage.NewColBatch(s, len(rows))
	for _, t := range rows {
		b.AppendTuple(t)
	}
	return b
}

// selOfDensity builds an input selection vector: nil (all rows), empty,
// every other row, or a random subset.
func selOfDensity(rng *rand.Rand, n, mode int) []int32 {
	switch mode {
	case 0:
		return nil // 100% density, implicit
	case 1:
		return []int32{} // 0%
	case 2:
		var s []int32
		for i := 0; i < n; i += 2 { // ~50%
			s = append(s, int32(i))
		}
		return s
	default:
		var s []int32
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				s = append(s, int32(i))
			}
		}
		return s
	}
}

func selsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestColPredDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC01BA7))
	for iter := 0; iter < 400; iter++ {
		s := randSchema(rng)
		rows := randRows(rng, s, rng.Intn(40))
		cb := toColBatch(s, rows)
		mismatch := iter%5 == 4
		e := randExpr(rng, s, 1+rng.Intn(2), mismatch)
		cp := CompileColPred(e)
		for mode := 0; mode < 4; mode++ {
			sel := selOfDensity(rng, len(rows), mode)
			want, wantErr := rowReference(e, rows, sel)
			got, gotErr := cp(cb, sel, nil)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("iter %d mode %d: error mismatch: row=%v col=%v\nexpr: %s",
					iter, mode, wantErr, gotErr, e)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("iter %d mode %d: error text: row=%q col=%q\nexpr: %s",
						iter, mode, wantErr, gotErr, e)
				}
				continue
			}
			if !selsEqual(want, got) {
				t.Fatalf("iter %d mode %d: selection mismatch\nexpr: %s\nrow: %v\ncol: %v",
					iter, mode, e, want, got)
			}
		}
	}
}

// TestColPredInt4Extremes pins the branch-free range kernels at the
// edges of int4, where the unsigned range mapping wraps: every operator,
// constant on either side, against the row evaluator.
func TestColPredInt4Extremes(t *testing.T) {
	edges := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	s := storage.NewSchema(storage.Column{Name: "a", Typ: storage.Int4}, storage.Column{Name: "b", Typ: storage.Int4})
	var rows []storage.Tuple
	for _, a := range edges {
		for _, b := range edges {
			rows = append(rows, storage.NewTuple(storage.IntVal(a), storage.IntVal(b)))
		}
	}
	cb := toColBatch(s, rows)
	rng := rand.New(rand.NewSource(7))
	for op := EQ; op <= GE; op++ {
		exprs := []Expr{Cmp{Op: op, L: Col{Idx: 0}, R: Col{Idx: 1}}}
		for _, k := range edges {
			kc := Const{Val: storage.IntVal(k)}
			exprs = append(exprs, Cmp{Op: op, L: Col{Idx: 0}, R: kc}, Cmp{Op: op, L: kc, R: Col{Idx: 0}})
		}
		for _, e := range exprs {
			for mode := 0; mode < 4; mode++ {
				sel := selOfDensity(rng, len(rows), mode)
				want, err := rowReference(e, rows, sel)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CompileColPred(e)(cb, sel, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !selsEqual(want, got) {
					t.Fatalf("%s mode %d: row %v, col %v", e, mode, want, got)
				}
			}
		}
	}
}

// BenchmarkColRangeShuffled times a 50%-selective BETWEEN over shuffled
// keys, the shape whose branchy form mispredicts on every other row.
func BenchmarkColRangeShuffled(b *testing.B) {
	const n = 4096
	s := storage.NewSchema(storage.Column{Name: "a", Typ: storage.Int4})
	cb := storage.NewColBatch(s, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		cb.AppendTuple(storage.NewTuple(storage.IntVal(int32(rng.Intn(9000)))))
	}
	chain := CompileColPredChain(ColRange(0, "a", 0, 4499))
	var x, y []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, _ = chain[0](cb, nil, x[:0])
		y, _ = chain[1](cb, x, y[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// TestColPredChainDifferential pins the executor-facing AND-chain API to
// the same oracle: applying the factors in sequence equals the full
// conjunction.
func TestColPredChainDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xFEED5))
	for iter := 0; iter < 200; iter++ {
		s := randSchema(rng)
		rows := randRows(rng, s, rng.Intn(40))
		cb := toColBatch(s, rows)
		// Build a top-level AND (sometimes nested) of clean predicates.
		k := 1 + rng.Intn(3)
		kids := make([]Expr, k)
		for i := range kids {
			kids[i] = randExpr(rng, s, 1, false)
		}
		var e Expr = Logic{Op: And, Kids: kids}
		want, wantErr := rowReference(e, rows, nil)
		chain := CompileColPredChain(e)
		var a, b []int32
		var sel []int32
		var gotErr error
		for i, p := range chain {
			dst := a[:0]
			if i%2 == 1 {
				dst = b[:0]
			}
			res, err := p(cb, sel, dst)
			if err != nil {
				gotErr = err
				break
			}
			if i%2 == 0 {
				a = res
			} else {
				b = res
			}
			sel = res
			if len(res) == 0 {
				break
			}
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("iter %d: error mismatch row=%v chain=%v expr=%s", iter, wantErr, gotErr, e)
		}
		if wantErr != nil {
			continue
		}
		got := sel
		if got == nil {
			got = []int32{}
		}
		if want == nil {
			want = []int32{}
		}
		if !selsEqual(want, got) {
			t.Fatalf("iter %d: mismatch\nexpr %s\nrow %v\nchain %v", iter, e, want, got)
		}
	}
}

// TestInt4KeysColsMatchesRows pins batch key extraction against the
// rows' own values at every density.
func TestInt4KeysColsMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
		storage.Column{Name: "c", Typ: storage.Int4},
	)
	rows := randRows(rng, s, 64)
	cb := toColBatch(s, rows)
	for mode := 0; mode < 4; mode++ {
		sel := selOfDensity(rng, len(rows), mode)
		for col := 0; col < s.Len(); col++ {
			if s.Cols[col].Typ != storage.Int4 {
				continue
			}
			var want []int32
			n := len(rows)
			if sel != nil {
				n = len(sel)
			}
			for pos := 0; pos < n; pos++ {
				row := pos
				if sel != nil {
					row = int(sel[pos])
				}
				want = append(want, rows[row].Vals[col].Int)
			}
			got, err := Int4KeysCols(cb, col, sel, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !selsEqual(want, got) {
				t.Fatalf("mode %d col %d: %v != %v", mode, col, want, got)
			}
		}
	}
}
