package exec

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"xprs/internal/plan"
	"xprs/internal/storage"
)

// FuzzColHashTable builds a hash table from fuzzer-chosen keys, prune
// set, partition count and seal parallelism, then checks it against a
// map reference:
//
//   - ProbeKey returns every key's multiplicity (0 for a miss) as a row
//     range inside the partition store, and the kept columns of that
//     range are exactly the key's build rows in flush order; pruned
//     columns are never stored;
//   - folding a probe batch with each row's match count as its
//     multiplicity (the fused probe→aggregate path) gives the same
//     count, sum, min and max per group as aggregating the joined rows.
//
// Input layout: byte 0 picks the partition count, byte 1 the prune
// mask (bits 0–2 over columns a, c, b), byte 2 the seal parallelism and
// insert batching; then 5-byte records of a little-endian int32 key and
// a repeat count (1 + 2·b, so one record can make a heavy-hitter key).
func FuzzColHashTable(f *testing.F) {
	rec := func(key int32, rep byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(key))
		return append(b, rep)
	}
	seed := func(parts, prune, mode byte, recs ...[]byte) []byte {
		b := []byte{parts, prune, mode}
		for _, r := range recs {
			b = append(b, r...)
		}
		return b
	}
	f.Add(seed(16, 0, 0, rec(1, 0), rec(2, 1), rec(3, 2)))
	f.Add(seed(4, 7, 1, rec(0, 3), rec(7, 150), rec(-1, 0)))
	f.Add(seed(1, 5, 2, rec(0, 200), rec(1<<16, 2), rec(-1<<31, 1), rec(1<<31-1, 1)))
	f.Add(seed(64, 2, 3, rec(9, 130), rec(9, 130), rec(1<<20, 4)))

	_, eng := testEngine(0)
	schema := storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "c", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		parts := 1 + int(data[0])%64
		var prune []int
		for c := 0; c < 3; c++ {
			if data[1]>>c&1 == 1 {
				prune = append(prune, c)
			}
		}
		sealProcs := 1 + int(data[2]&1)
		batchRows := 1 + int(data[2]>>1)%97
		// Build rows: row i carries c = i and b = "v<i>" so every row is
		// identifiable.
		var keys []int32
		for r := data[3:]; len(r) >= 5 && len(keys) < 4096; r = r[5:] {
			k := int32(binary.LittleEndian.Uint32(r))
			for n := 1 + 2*int(r[4]); n > 0; n-- {
				keys = append(keys, k)
			}
		}
		h := newColHashTable(eng, schema, 0, prune, parts, sealProcs)
		defer h.release()
		// Two builders take alternate batches; builder 0 flushes first,
		// so per key the store holds builder 0's rows, then builder 1's.
		bld := [2]*ColBuilder{h.Builder(), h.Builder()}
		var order [2][]int
		for lo, bi := 0, 0; lo < len(keys); lo, bi = lo+batchRows, 1-bi {
			hi := min(lo+batchRows, len(keys))
			cb := storage.NewColBatch(schema, hi-lo)
			for i := lo; i < hi; i++ {
				cb.AppendTuple(storage.NewTuple(storage.IntVal(keys[i]), storage.IntVal(int32(i)), storage.TextVal(fmt.Sprintf("v%d", i))))
				order[bi] = append(order[bi], i)
			}
			if err := bld[bi].InsertBatch(cb); err != nil {
				t.Fatal(err)
			}
		}
		bld[0].Flush()
		bld[1].Flush()
		h.Seal()
		if h.Len() != len(keys) {
			t.Fatalf("Len = %d, want %d", h.Len(), len(keys))
		}
		want := make(map[int32][]int)
		for _, o := range order {
			for _, i := range o {
				want[keys[i]] = append(want[keys[i]], i)
			}
		}
		distinct := make([]int32, 0, len(want))
		for k := range want {
			distinct = append(distinct, k)
		}
		slices.Sort(distinct)
		for _, k := range distinct {
			checkProbeRange(t, h, k, want[k], prune)
			if _, ok := want[k+1]; !ok {
				if _, _, n := h.ProbeKey(k + 1); n != 0 {
					t.Fatalf("miss key %d matched %d rows", k+1, n)
				}
			}
		}
		checkFusedFold(t, eng, h, distinct, want)
	})
}

// checkProbeRange checks one key's probe result against its build rows
// (indexes into the insert order, in expected store order).
func checkProbeRange(t *testing.T, h *ColHashTable, k int32, rows []int, prune []int) {
	t.Helper()
	store, start, n := h.ProbeKey(k)
	if int(n) != len(rows) {
		t.Fatalf("key %d: %d matches, want %d", k, n, len(rows))
	}
	if store == nil || start < 0 || int(start+n) > store.N {
		t.Fatalf("key %d: range [%d,%d) outside the store", k, start, start+n)
	}
	for c := range store.Vecs {
		if slices.Contains(prune, c) != store.Vecs[c].Pruned() {
			t.Fatalf("key %d: column %d pruned = %v, prune set %v", k, c, store.Vecs[c].Pruned(), prune)
		}
	}
	for m, i := range rows {
		row := int(start) + m
		if v := &store.Vecs[0]; !v.Pruned() && v.Ints[row] != k {
			t.Fatalf("key %d: stored key %d", k, v.Ints[row])
		}
		if v := &store.Vecs[1]; !v.Pruned() && v.Ints[row] != int32(i) {
			t.Fatalf("key %d match %d: row %d, want %d", k, m, v.Ints[row], i)
		}
		if v := &store.Vecs[2]; !v.Pruned() && v.Str(row) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d match %d: text %q, want v%d", k, m, v.Str(row), i)
		}
	}
}

// checkFusedFold probes every build key twice (and one miss per key)
// with a probe batch (a = key, c = a per-row value), folds each row
// with its match count as multiplicity, and compares the aggregate
// with the joined rows aggregated one by one.
func checkFusedFold(t *testing.T, eng *Engine, h *ColHashTable, distinct []int32, want map[int32][]int) {
	t.Helper()
	probeSchema := storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "c", Typ: storage.Int4},
	)
	pb := storage.NewColBatch(probeSchema, 3*len(distinct))
	for j, k := range distinct {
		for r := int32(0); r < 2; r++ {
			pb.AppendTuple(storage.NewTuple(storage.IntVal(k), storage.IntVal(int32(j%201-100)*(1-2*r))))
		}
		pb.AppendTuple(storage.NewTuple(storage.IntVal(k^0x55), storage.IntVal(int32(j))))
	}
	agg := &plan.Agg{GroupCol: 0, Funcs: []plan.AggFunc{
		{Kind: plan.CountAll}, {Kind: plan.Sum, Col: 1}, {Kind: plan.Min, Col: 1}, {Kind: plan.Max, Col: 1},
	}}
	st := newAggState(agg, eng)
	sc := &slaveCtx{rt: &runningTask{eng: eng, fr: &fragRun{eng: eng}}}
	fold := sc.aggFolder(st, pb)
	type acc struct{ n, sum, lo, hi int64 }
	ref := make(map[int32]*acc)
	for row := 0; row < pb.N; row++ {
		k := pb.Vecs[0].Ints[row]
		_, _, cnt := h.ProbeKey(k)
		if int(cnt) != len(want[k]) {
			t.Fatalf("probe key %d: %d matches, want %d", k, cnt, len(want[k]))
		}
		if cnt == 0 {
			continue
		}
		fold.fold(sc, row, int64(cnt))
		v := int64(pb.Vecs[1].Ints[row])
		a := ref[k]
		if a == nil {
			a = &acc{lo: v, hi: v}
			ref[k] = a
		}
		for range cnt {
			a.n++
			a.sum += v
			a.lo, a.hi = min(a.lo, v), max(a.hi, v)
		}
	}
	st.mergeInto(sc.aggLocal)
	if sc.aggDense != nil && !st.mergeDense(sc.aggBase, sc.aggDense) {
		eng.putDense(sc.aggDense)
	}
	out := NewTemp(storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4}, storage.Column{Name: "n", Typ: storage.Int4},
		storage.Column{Name: "sum", Typ: storage.Int4}, storage.Column{Name: "min", Typ: storage.Int4},
		storage.Column{Name: "max", Typ: storage.Int4},
	))
	if n := st.emit(out); n != len(ref) {
		t.Fatalf("fold emitted %d groups, want %d", n, len(ref))
	}
	for _, tp := range out.Tuples() {
		k := tp.Vals[0].Int
		a := ref[k]
		if a == nil {
			t.Fatalf("fold emitted unknown group %d", k)
		}
		got := [4]int32{tp.Vals[1].Int, tp.Vals[2].Int, tp.Vals[3].Int, tp.Vals[4].Int}
		if w := [4]int32{int32(a.n), int32(a.sum), int32(a.lo), int32(a.hi)}; got != w {
			t.Fatalf("group %d: fold %v, want %v", k, got, w)
		}
	}
}
