package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xprs/internal/btree"
	"xprs/internal/core"
	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// The batch-at-a-time pipeline must be a pure wall-clock optimization:
// for any batch size, a fragment graph must produce the identical
// result multiset AND the identical virtual-time trajectory (makespan,
// per-task finish times, disk statistics). These tests sweep batch
// sizes including the degenerate tuple-at-a-time case (1), a size that
// never divides page or group boundaries evenly (7), the default (256),
// and one larger than every relation involved.
//
// Every size is checked against a golden outcome pinned for the shape,
// and the golden's rows against a brute-force reference evaluation
// (refEval) that shares no code with the executor.

var sweepSizes = []int{1, 7, 256, 1 << 20}

// canonRows renders tuples as a sorted multiset of strings.
func canonRows(ts []storage.Tuple) []string {
	rows := make([]string, 0, len(ts))
	for _, tp := range ts {
		var b strings.Builder
		for i, v := range tp.Vals {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d|%q", v.Int, v.Str)
		}
		rows = append(rows, b.String())
	}
	slices.Sort(rows)
	return rows
}

// canonTuples renders a temp as a sorted multiset of rows.
func canonTuples(temp *Temp) []string { return canonRows(temp.Tuples()) }

// rowsHash digests a canonical row multiset.
func rowsHash(rows []string) string {
	sum := sha256.Sum256([]byte(strings.Join(rows, "\n")))
	return hex.EncodeToString(sum[:8])
}

// sweepOutcome is everything that must not depend on the batch size.
type sweepOutcome struct {
	rows    int
	hash    string
	elapsed string
	finish  string
	disk    string
}

// outcomeOf summarizes a report for comparison against a golden.
func outcomeOf(rep *Report, g *plan.Graph) (sweepOutcome, []string) {
	finish := make([]string, 0, len(rep.Finish))
	for id, at := range rep.Finish {
		finish = append(finish, fmt.Sprintf("%d@%v", id, at))
	}
	slices.Sort(finish)
	rows := canonTuples(rep.Results[g.Root.ID])
	return sweepOutcome{
		rows:    len(rows),
		hash:    rowsHash(rows),
		elapsed: rep.Elapsed.String(),
		finish:  strings.Join(finish, " "),
		disk:    fmt.Sprintf("%+v", rep.Disk),
	}, rows
}

// sweepCase is one plan shape of the sweep: the buffer-pool size it
// runs with and its plan over a fresh engine's store.
type sweepCase struct {
	pool int
	mk   func(t *testing.T, eng *Engine) plan.Node
}

var sweepCases = map[string]sweepCase{
	// The page driver with a residual qualification (filter batches must
	// not shift IO points).
	"SeqScanFilter": {0, func(t *testing.T, eng *Engine) plan.Node {
		rel := buildRel(t, eng.Store, "s", 1100, 90, 24)
		return &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 10, 69)}
	}},
	// The range driver, whose random reads interleave with batch delivery
	// key group by key group.
	"IndexScan": {0, func(t *testing.T, eng *Engine) plan.Node {
		rel := buildShuffledRel(t, eng.Store, "ri", 900, 24)
		ix, err := btree.BuildIndex("ri_a", rel, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		return &plan.IndexScan{Rel: rel, Index: ix, Lo: 100, Hi: 399}
	}},
	// Hash build (batched inserts), hash probe (batched emission) and
	// two-phase aggregation.
	"HashJoinAgg": {0, hashAggPlan},
	// All three join methods stacked: a MergeJoin driver feeding a
	// NestLoop (whose inner rescans block on IO between emissions)
	// feeding a HashJoin probe — the hardest case for keeping the clock
	// batch-independent.
	"DeepPipeline": {64, func(t *testing.T, eng *Engine) plan.Node {
		r1 := buildRel(t, eng.Store, "b1", 300, 60, 20)
		r2 := buildRel(t, eng.Store, "b2", 240, 60, 20)
		r3 := buildRel(t, eng.Store, "b3", 120, 60, 20)
		r4 := buildRel(t, eng.Store, "b4", 180, 60, 20)
		mj := &plan.MergeJoin{
			Left:  &plan.Sort{Child: &plan.SeqScan{Rel: r1}, Col: 0},
			Right: &plan.Sort{Child: &plan.SeqScan{Rel: r2}, Col: 0},
			LCol:  0, RCol: 0,
		}
		nl := &plan.NestLoop{
			Outer: mj,
			Inner: &plan.Material{Child: &plan.SeqScan{Rel: r3}},
			Pred:  expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 4}},
		}
		return &plan.HashJoin{Left: nl, Right: &plan.SeqScan{Rel: r4}, LCol: 0, RCol: 0}
	}},
	// The range driver feeding charged operators: its flush before each
	// random read delivers the pending probe and fold work first.
	"IndexScanProbeAgg": {0, func(t *testing.T, eng *Engine) plan.Node {
		rel := buildRelWith(t, eng.Store, "rp", 1200, 24, func(i int) int32 { return int32((i * 733) % 1200 % 150) })
		ix, err := btree.BuildIndex("rp_a", rel, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		hj := &plan.HashJoin{
			Left:  &plan.IndexScan{Rel: rel, Index: ix, Lo: 20, Hi: 89},
			Right: &plan.SeqScan{Rel: buildRel(t, eng.Store, "rb", 200, 100, 20)},
			LCol:  0, RCol: 0,
		}
		return &plan.Agg{Child: hj, GroupCol: 0, Funcs: []plan.AggFunc{{Kind: plan.CountAll}}}
	}},
	// A merge driver feeding a nestloop that rescans a base relation
	// from disk, feeding a hash probe: the merge driver must emit row by
	// row into the nestloop, and the nestloop must deliver its output to
	// the probe before every inner page read.
	"MergeNestLoopProbe": {0, func(t *testing.T, eng *Engine) plan.Node {
		mj := &plan.MergeJoin{
			Left:  &plan.Sort{Child: &plan.SeqScan{Rel: buildRel(t, eng.Store, "m1", 150, 60, 20)}, Col: 0},
			Right: &plan.Sort{Child: &plan.SeqScan{Rel: buildRel(t, eng.Store, "m2", 120, 60, 20)}, Col: 0},
			LCol:  0, RCol: 0,
		}
		nl := &plan.NestLoop{
			Outer: mj,
			Inner: &plan.SeqScan{Rel: buildRel(t, eng.Store, "mi", 60, 60, 300), Filter: expr.ColRange(0, "a", 0, 29)},
			Pred:  expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 4}},
		}
		return &plan.HashJoin{Left: nl, Right: &plan.SeqScan{Rel: buildRel(t, eng.Store, "ma", 60, 30, 20)}, LCol: 0, RCol: 0}
	}},
	// Parallel page-driven slaves whose nestloops rescan an index, feeding
	// a hash probe: each nestloop must deliver its output to the probe
	// before every random inner read.
	"NestLoopIndexInnerProbe": {0, func(t *testing.T, eng *Engine) plan.Node {
		inner := buildShuffledRel(t, eng.Store, "xi", 300, 20)
		ix, err := btree.BuildIndex("xi_a", inner, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		nl := &plan.NestLoop{
			Outer: &plan.SeqScan{Rel: buildRel(t, eng.Store, "xo", 240, 40, 300)},
			Inner: &plan.IndexScan{Rel: inner, Index: ix, Lo: 0, Hi: 9},
			Pred:  expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 2}},
		}
		return &plan.HashJoin{Left: nl, Right: &plan.SeqScan{Rel: buildRel(t, eng.Store, "xa", 40, 20, 20)}, LCol: 0, RCol: 0}
	}},
	// A nestloop whose inner is an index rescan: every outer tuple
	// triggers random IO, so emitters ahead of it flush per emission.
	"NestLoopIndexInner": {32, func(t *testing.T, eng *Engine) plan.Node {
		outer := buildRel(t, eng.Store, "no", 90, 30, 20)
		inner := buildShuffledRel(t, eng.Store, "ni", 300, 20)
		ix, err := btree.BuildIndex("ni_a", inner, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		return &plan.NestLoop{
			Outer: &plan.SeqScan{Rel: outer},
			Inner: &plan.IndexScan{Rel: inner, Index: ix, Lo: 0, Hi: 49},
			Pred:  expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 2}},
		}
	}},
}

// sweepGoldens are the outcomes of every sweep shape under InterAdj on
// an 8-processor engine, recorded when the executor still ran two batch
// layouts (which agreed on them at every batch size).
var sweepGoldens = map[string]sweepOutcome{
	"SeqScanFilter": {730, "24f6806f28370522", "309.496798ms",
		"0@309.496798ms",
		"{Reads:[0 7 4] Busy:230.952374ms Queued:249.999994ms}"},
	"IndexScan": {300, "b20fd7987cd16c1e", "1.090807963s",
		"0@1.090807963s",
		"{Reads:[179 92 4] Busy:3.492979746s Queued:3.276921929s}"},
	"HashJoinAgg": {80, "7e3f9e75308eb31d", "707.364508ms",
		"0@187.478645ms 1@707.364508ms",
		"{Reads:[0 7 8] Busy:345.238086ms Queued:249.999994ms}"},
	"DeepPipeline": {7200, "4f3cf3c7866c56d3", "1.84581458s",
		"0@390.65729ms 1@203.178645ms 2@586.035935ms 3@762.21458ms 4@1.84581458s",
		"{Reads:[0 0 10] Busy:285.71428ms Queued:0s}"},
	"NestLoopIndexInner": {90, "4258fc5b8b8cc884", "6.615064398s",
		"0@6.615064398s",
		"{Reads:[0 0 4] Busy:114.285712ms Queued:0s}"},
	"IndexScanProbeAgg": {70, "d8ece62b5bf22612", "2.437664606s",
		"0@187.478645ms 1@2.437664606s",
		"{Reads:[347 209 6] Busy:7.232081228s Queued:7.148260815s}"},
	"NestLoopIndexInnerProbe": {120, "329b2ed1c1f90580", "10.242573549s",
		"0@91.481746ms 1@10.242573549s",
		"{Reads:[2397 7 8] Busy:25.056577452s Queued:30.272609748s}"},
	"MergeNestLoopProbe": {360, "91ae3fdc745505a8", "5.226591552s",
		"0@305.960911ms 1@188.178645ms 2@490.539556ms 3@5.226591552s",
		"{Reads:[897 0 8] Busy:9.47599379s Queued:673.264934ms}"},
}

// runSweep executes the named shape at every sweep size and checks each
// outcome against the shape's golden, and the rows against refEval.
func runSweep(t *testing.T, name string) {
	t.Helper()
	c, want := sweepCases[name], sweepGoldens[name]
	for _, bs := range sweepSizes {
		v, eng := testEngine(c.pool)
		eng.BatchSize = bs
		root := c.mk(t, eng)
		specs, g := specFor(t, eng, root, 0)
		rep := runOne(t, v, eng, specs, core.InterAdj)
		got, rows := outcomeOf(rep, g)
		if bs == sweepSizes[0] {
			checkReference(t, root, rows)
		}
		if got != want {
			t.Errorf("%s batch=%d outcome differs from golden:\n got %+v\nwant %+v", name, bs, got, want)
		}
	}
}

// checkReference compares executor rows with the brute-force answer.
func checkReference(t *testing.T, root plan.Node, rows []string) {
	t.Helper()
	ref := canonRows(refEval(t, root))
	if len(ref) == 0 {
		t.Fatal("reference answer is empty; the check is vacuous")
	}
	if !slices.Equal(rows, ref) {
		t.Fatalf("executor returned %d rows (hash %s), reference %d rows (hash %s)",
			len(rows), rowsHash(rows), len(ref), rowsHash(ref))
	}
}

func TestBatchSweepSeqScanFilter(t *testing.T)      { runSweep(t, "SeqScanFilter") }
func TestBatchSweepIndexScan(t *testing.T)          { runSweep(t, "IndexScan") }
func TestBatchSweepHashJoinAgg(t *testing.T)        { runSweep(t, "HashJoinAgg") }
func TestBatchSweepDeepPipeline(t *testing.T)       { runSweep(t, "DeepPipeline") }
func TestBatchSweepNestLoopIndexInner(t *testing.T) { runSweep(t, "NestLoopIndexInner") }
func TestBatchSweepIndexScanProbeAgg(t *testing.T)  { runSweep(t, "IndexScanProbeAgg") }
func TestBatchSweepMergeNestLoopProbe(t *testing.T) { runSweep(t, "MergeNestLoopProbe") }
func TestBatchSweepNestLoopIndexInnerProbe(t *testing.T) {
	runSweep(t, "NestLoopIndexInnerProbe")
}

// refEval answers a plan tree by brute force over the base relations'
// tuples: scans filter through the interpreted evaluator, every join is
// a nested loop over its materialized inputs, aggregation folds through
// a map. Sorts and materializations are the identity on a multiset.
func refEval(t *testing.T, n plan.Node) []storage.Tuple {
	t.Helper()
	switch x := n.(type) {
	case *plan.SeqScan:
		return refFilter(t, refRel(t, x.Rel), x.Filter)
	case *plan.IndexScan:
		var in []storage.Tuple
		for _, tp := range refRel(t, x.Rel) {
			if k := tp.Vals[x.Index.Col].Int; x.Lo <= k && k <= x.Hi {
				in = append(in, tp)
			}
		}
		return refFilter(t, in, x.Filter)
	case *plan.Sort:
		return refEval(t, x.Child)
	case *plan.Material:
		return refEval(t, x.Child)
	case *plan.NestLoop:
		return refLoopJoin(t, refEval(t, x.Outer), refEval(t, x.Inner), x.Pred)
	case *plan.HashJoin:
		return refEquiJoin(t, refEval(t, x.Left), refEval(t, x.Right), x.LCol, x.RCol)
	case *plan.MergeJoin:
		return refEquiJoin(t, refEval(t, x.Left), refEval(t, x.Right), x.LCol, x.RCol)
	case *plan.Agg:
		return refAgg(refEval(t, x.Child), x)
	default:
		t.Fatalf("refEval: unsupported node %T", n)
		return nil
	}
}

func refRel(t *testing.T, rel *storage.Relation) []storage.Tuple {
	t.Helper()
	var out []storage.Tuple
	for p := int64(0); p < rel.NPages(); p++ {
		ts, err := rel.PageTuples(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ts...)
	}
	return out
}

func refFilter(t *testing.T, in []storage.Tuple, pred expr.Expr) []storage.Tuple {
	t.Helper()
	var out []storage.Tuple
	for _, tp := range in {
		ok, err := expr.Qualifies(pred, tp)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, tp)
		}
	}
	return out
}

func refLoopJoin(t *testing.T, left, right []storage.Tuple, pred expr.Expr) []storage.Tuple {
	t.Helper()
	var pairs []storage.Tuple
	for _, l := range left {
		for _, r := range right {
			pairs = append(pairs, l.Concat(r))
		}
	}
	return refFilter(t, pairs, pred)
}

func refEquiJoin(t *testing.T, left, right []storage.Tuple, lcol, rcol int) []storage.Tuple {
	t.Helper()
	nl := 0
	if len(left) > 0 {
		nl = len(left[0].Vals)
	}
	return refLoopJoin(t, left, right, expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: lcol}, R: expr.Col{Idx: nl + rcol}})
}

func refAgg(in []storage.Tuple, a *plan.Agg) []storage.Tuple {
	groups := make(map[int32][]int64)
	var order []int32
	for _, tp := range in {
		k := int32(0)
		if a.GroupCol >= 0 {
			k = tp.Vals[a.GroupCol].Int
		}
		acc, ok := groups[k]
		if !ok {
			acc = make([]int64, len(a.Funcs))
			for i, f := range a.Funcs {
				switch f.Kind {
				case plan.Min:
					acc[i] = 1 << 62
				case plan.Max:
					acc[i] = -1 << 62
				}
			}
			groups[k] = acc
			order = append(order, k)
		}
		for i, f := range a.Funcs {
			switch f.Kind {
			case plan.CountAll:
				acc[i]++
			case plan.Sum:
				acc[i] += int64(tp.Vals[f.Col].Int)
			case plan.Min:
				if v := int64(tp.Vals[f.Col].Int); v < acc[i] {
					acc[i] = v
				}
			case plan.Max:
				if v := int64(tp.Vals[f.Col].Int); v > acc[i] {
					acc[i] = v
				}
			}
		}
	}
	out := make([]storage.Tuple, 0, len(order))
	for _, k := range order {
		var vals []storage.Value
		if a.GroupCol >= 0 {
			vals = append(vals, storage.IntVal(k))
		}
		for _, v := range groups[k] {
			vals = append(vals, storage.IntVal(int32(v)))
		}
		out = append(out, storage.Tuple{Vals: vals})
	}
	return out
}

// TestBatchBufferPoolReuse pins down that pooled batch buffers do not
// leak tuples between queries on one engine.
func TestBatchBufferPoolReuse(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "p", 500, 50, 20)
	root := &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 0, 24)}
	var first []string
	for i := 0; i < 3; i++ {
		specs, g := specFor(t, eng, root, i*10)
		rep := runOne(t, v, eng, specs, core.InterAdj)
		rows := canonTuples(rep.Results[g.Root.ID+i*10])
		if first == nil {
			first = rows
			continue
		}
		if len(rows) != len(first) {
			t.Fatalf("run %d rows = %d, want %d", i, len(rows), len(first))
		}
		for j := range rows {
			if rows[j] != first[j] {
				t.Fatalf("run %d row %d = %s, want %s", i, j, rows[j], first[j])
			}
		}
	}
}
