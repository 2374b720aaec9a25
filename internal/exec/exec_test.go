package exec

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"xprs/internal/btree"
	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// testEngine builds an engine on a fresh virtual clock with the paper's
// disk array and 8 processors.
func testEngine(poolPages int) (*vclock.Virtual, *Engine) {
	v := vclock.NewVirtual()
	disks := diskmodel.New(v, diskmodel.DefaultConfig())
	store := storage.NewStore(v, disks, poolPages)
	eng := New(v, store, cost.DefaultParams(diskmodel.DefaultConfig(), 8))
	return v, eng
}

// buildRel creates a physical relation r(a int4, b text) with n tuples,
// a = i mod distinct, b = padding of padLen bytes.
func buildRel(t *testing.T, st *storage.Store, name string, n int, distinct int32, padLen int) *storage.Relation {
	return buildRelWith(t, st, name, n, padLen, func(i int) int32 { return int32(i) % distinct })
}

// buildShuffledRel creates a relation whose a column is a permutation of
// 0..n-1 decorrelated from heap order (what a genuinely unclustered
// index sees). The stride is a prime co-prime to n.
func buildShuffledRel(t *testing.T, st *storage.Store, name string, n int, padLen int) *storage.Relation {
	return buildRelWith(t, st, name, n, padLen, func(i int) int32 {
		return int32((int64(i) * 733) % int64(n))
	})
}

func buildRelWith(t *testing.T, st *storage.Store, name string, n int, padLen int, key func(int) int32) *storage.Relation {
	t.Helper()
	b := storage.NewBuilder(st.NextID(), name, storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	))
	pad := strings.Repeat("x", padLen)
	for i := 0; i < n; i++ {
		if err := b.Append(storage.NewTuple(storage.IntVal(key(i)), storage.TextVal(pad))); err != nil {
			t.Fatal(err)
		}
	}
	r := b.Finalize()
	if err := st.Add(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// specFor wraps a single plan into estimated TaskSpecs.
func specFor(t *testing.T, eng *Engine, root plan.Node, baseID int) ([]TaskSpec, *plan.Graph) {
	t.Helper()
	g, err := plan.Decompose(root)
	if err != nil {
		t.Fatal(err)
	}
	ests, err := cost.EstimateGraph(eng.Params, g)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := QueryTasks(g, ests, baseID)
	if err != nil {
		t.Fatal(err)
	}
	return specs, g
}

// runOne executes specs and returns the report.
func runOne(t *testing.T, v *vclock.Virtual, eng *Engine, specs []TaskSpec, policy core.Policy) *Report {
	t.Helper()
	var rep *Report
	var err error
	v.Run(func() {
		rep, err = eng.Run(specs, policy, core.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// expectInts asserts that the temp's column col holds exactly the given
// multiset of values.
func expectInts(t *testing.T, temp *Temp, col int, want []int32) {
	t.Helper()
	got := make([]int32, 0, temp.Len())
	for _, tp := range temp.Tuples() {
		got = append(got, tp.Vals[col].Int)
	}
	slices.Sort(got)
	w := append([]int32(nil), want...)
	slices.Sort(w)
	if len(got) != len(w) {
		t.Fatalf("result has %d tuples, want %d", len(got), len(w))
	}
	for i := range got {
		if got[i] != w[i] {
			t.Fatalf("result[%d] = %d, want %d", i, got[i], w[i])
		}
	}
}

func TestSeqScanFragmentCorrectness(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 2000, 2000, 30)
	root := &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 100, 199)}
	specs, _ := specFor(t, eng, root, 0)
	rep := runOne(t, v, eng, specs, core.InterAdj)
	want := make([]int32, 0, 100)
	for i := int32(100); i <= 199; i++ {
		want = append(want, i)
	}
	expectInts(t, rep.Results[0], 0, want)
	if rep.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if rep.Disk.TotalReads() != rel.NPages() {
		t.Fatalf("disk reads = %d, want %d (every page exactly once)", rep.Disk.TotalReads(), rel.NPages())
	}
}

func TestSeqScanParallelSpeedup(t *testing.T) {
	// The same scan on a CPU-heavy relation must run ~k times faster at
	// degree k (intra-operation speedup, [HONG91] behaviour our substrate
	// must reproduce).
	elapsedAt := func(nprocs int) time.Duration {
		v := vclock.NewVirtual()
		disks := diskmodel.New(v, diskmodel.DefaultConfig())
		store := storage.NewStore(v, disks, 0)
		params := cost.DefaultParams(diskmodel.DefaultConfig(), nprocs)
		eng := New(v, store, params)
		rel := buildRel(t, store, "r", 3000, 3000, 20)
		specs, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
		rep := runOne(t, v, eng, specs, core.IntraOnly)
		return rep.Elapsed
	}
	e1 := elapsedAt(1)
	e4 := elapsedAt(4)
	speedup := float64(e1) / float64(e4)
	if speedup < 3.0 || speedup > 4.6 {
		t.Fatalf("speedup at 4 procs = %.2f, want near 4 (near-linear)", speedup)
	}
}

func TestIndexScanFragmentCorrectness(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildShuffledRel(t, eng.Store, "r", 1500, 30)
	ix, err := btree.BuildIndex("r_a", rel, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	root := &plan.IndexScan{Rel: rel, Index: ix, Lo: 200, Hi: 299}
	specs, _ := specFor(t, eng, root, 0)
	rep := runOne(t, v, eng, specs, core.InterAdj)
	want := make([]int32, 0, 100)
	for i := int32(200); i <= 299; i++ {
		want = append(want, i)
	}
	expectInts(t, rep.Results[0], 0, want)
	// One (mostly random) IO per fetched tuple.
	if rep.Disk.TotalReads() != 100 {
		t.Fatalf("disk reads = %d, want 100", rep.Disk.TotalReads())
	}
}

func TestIndexScanWithResidualFilter(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 1000, 10, 30) // a = i mod 10
	ix, err := btree.BuildIndex("r_a", rel, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// Key range [2,3] with residual filter a = 2: only the 100 a=2 rows.
	root := &plan.IndexScan{Rel: rel, Index: ix, Lo: 2, Hi: 3, Filter: expr.ColEqConst(0, "a", 2)}
	specs, _ := specFor(t, eng, root, 0)
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	if got := rep.Results[0].Len(); got != 100 {
		t.Fatalf("result = %d rows, want 100", got)
	}
}

func TestHashJoinQuery(t *testing.T) {
	v, eng := testEngine(0)
	r1 := buildRel(t, eng.Store, "r1", 600, 200, 24) // a = i mod 200
	r2 := buildRel(t, eng.Store, "r2", 200, 200, 24) // a = i (all distinct)
	root := &plan.HashJoin{
		Left:  &plan.SeqScan{Rel: r1},
		Right: &plan.SeqScan{Rel: r2},
		LCol:  0, RCol: 0,
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	res := rep.Results[g.Root.ID]
	// Every r1 tuple matches exactly one r2 tuple: 600 output rows with
	// equal join keys.
	if res.Len() != 600 {
		t.Fatalf("join produced %d rows, want 600", res.Len())
	}
	for _, tp := range res.Tuples() {
		if tp.Vals[0].Int != tp.Vals[2].Int {
			t.Fatalf("join key mismatch in %v", tp)
		}
		if len(tp.Vals) != 4 {
			t.Fatalf("join row width %d", len(tp.Vals))
		}
	}
	// Build fragment must have completed before the probe started.
	if !(rep.Finish[0] <= rep.Finish[g.Root.ID]) {
		t.Fatal("probe finished before build")
	}
}

func TestMergeJoinQuery(t *testing.T) {
	v, eng := testEngine(0)
	r1 := buildRel(t, eng.Store, "r1", 500, 100, 24)
	r2 := buildRel(t, eng.Store, "r2", 300, 100, 24)
	root := &plan.MergeJoin{
		Left:  &plan.Sort{Child: &plan.SeqScan{Rel: r1}, Col: 0},
		Right: &plan.Sort{Child: &plan.SeqScan{Rel: r2}, Col: 0},
		LCol:  0, RCol: 0,
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	res := rep.Results[g.Root.ID]
	// r1 has 5 tuples per key (500/100), r2 has 3: 100 keys x 15 rows.
	if res.Len() != 1500 {
		t.Fatalf("merge join produced %d rows, want 1500", res.Len())
	}
	for _, tp := range res.Tuples() {
		if tp.Vals[0].Int != tp.Vals[2].Int {
			t.Fatalf("join key mismatch in %v", tp)
		}
	}
}

// TestMergeJoinIndexScanInputError pins, byte for byte, the error a
// merge join reports when the optimizer hands it an index scan (ordered,
// but not a sorted temp) as an input. The adhoc-join benchmark tolerates
// exactly this text as a known defect and fails on any other error, so
// the wording must not drift.
func TestMergeJoinIndexScanInputError(t *testing.T) {
	for _, side := range []string{"left", "right"} {
		v, eng := testEngine(0)
		rel := buildShuffledRel(t, eng.Store, "mi", 200, 20)
		ix, err := btree.BuildIndex("mi_a", rel, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		scan := &plan.IndexScan{Rel: rel, Index: ix, Lo: 0, Hi: 99}
		sorted := &plan.Sort{Child: &plan.SeqScan{Rel: buildRel(t, eng.Store, "ms", 100, 50, 20)}, Col: 0}
		mj := &plan.MergeJoin{Left: scan, Right: sorted, LCol: 0, RCol: 0}
		if side == "right" {
			mj.Left, mj.Right = sorted, scan
		}
		specs, _ := specFor(t, eng, mj, 0)
		v.Run(func() { _, err = eng.Run(specs, core.InterAdj, core.Options{}) })
		want := "exec: merge join " + side + " input is *plan.IndexScan, want sorted FragScan"
		if err == nil || err.Error() != want {
			t.Fatalf("%s: error = %v, want %q", side, err, want)
		}
	}
}

func TestNestLoopQuery(t *testing.T) {
	v, eng := testEngine(128)
	r1 := buildRel(t, eng.Store, "r1", 60, 60, 24)
	r2 := buildRel(t, eng.Store, "r2", 40, 40, 24)
	pred := expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 2}}
	root := &plan.NestLoop{
		Outer: &plan.SeqScan{Rel: r1},
		Inner: &plan.SeqScan{Rel: r2},
		Pred:  pred,
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 1 {
		t.Fatalf("specs = %d (nestloop pipelines)", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	// Keys 0..39 match once each.
	want := make([]int32, 40)
	for i := range want {
		want[i] = int32(i)
	}
	expectInts(t, rep.Results[g.Root.ID], 0, want)
}

func TestNestLoopMaterializedInner(t *testing.T) {
	v, eng := testEngine(0)
	r1 := buildRel(t, eng.Store, "r1", 50, 50, 24)
	r2 := buildRel(t, eng.Store, "r2", 30, 30, 24)
	pred := expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0}, R: expr.Col{Idx: 2}}
	root := &plan.NestLoop{
		Outer: &plan.SeqScan{Rel: r1},
		Inner: &plan.Material{Child: &plan.SeqScan{Rel: r2}},
		Pred:  pred,
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	if got := rep.Results[g.Root.ID].Len(); got != 30 {
		t.Fatalf("rows = %d, want 30", got)
	}
	// The inner relation is read exactly once (materialized), so disk
	// reads = pages(r1) + pages(r2).
	if want := r1.NPages() + r2.NPages(); rep.Disk.TotalReads() != want {
		t.Fatalf("disk reads = %d, want %d", rep.Disk.TotalReads(), want)
	}
}

func TestBushyPlanIndependentBuildsOverlap(t *testing.T) {
	v, eng := testEngine(0)
	r1 := buildRel(t, eng.Store, "r1", 400, 100, 24)
	r2 := buildRel(t, eng.Store, "r2", 400, 100, 24)
	r3 := buildRel(t, eng.Store, "r3", 400, 100, 24)
	r4 := buildRel(t, eng.Store, "r4", 400, 100, 24)
	left := &plan.HashJoin{Left: &plan.SeqScan{Rel: r1}, Right: &plan.SeqScan{Rel: r2}, LCol: 0, RCol: 0}
	right := &plan.HashJoin{Left: &plan.SeqScan{Rel: r3}, Right: &plan.SeqScan{Rel: r4}, LCol: 0, RCol: 0}
	root := &plan.HashJoin{Left: left, Right: right, LCol: 0, RCol: 0}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	if rep.Results[g.Root.ID].Len() == 0 {
		t.Fatal("bushy join empty")
	}
	// All four fragments completed; root last.
	if len(rep.Finish) != 4 {
		t.Fatalf("finished %d tasks", len(rep.Finish))
	}
	rootID := g.Root.ID
	for id, ft := range rep.Finish {
		if id != rootID && ft > rep.Finish[rootID] {
			t.Fatalf("fragment %d finished after root", id)
		}
	}
}

func TestEmptyRelation(t *testing.T) {
	v, eng := testEngine(0)
	b := storage.NewBuilder(eng.Store.NextID(), "empty", storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	))
	rel := b.Finalize()
	if err := eng.Store.Add(rel); err != nil {
		t.Fatal(err)
	}
	specs, g := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	rep := runOne(t, v, eng, specs, core.InterAdj)
	if rep.Results[g.Root.ID].Len() != 0 {
		t.Fatal("empty relation produced rows")
	}
}

func TestRunValidation(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 10, 10, 10)
	specs, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	v.Run(func() {
		if _, err := eng.Run([]TaskSpec{{}}, core.InterAdj, core.Options{}); err == nil {
			t.Error("empty spec accepted")
		}
		dup := []TaskSpec{specs[0], specs[0]}
		if _, err := eng.Run(dup, core.InterAdj, core.Options{}); err == nil {
			t.Error("duplicate IDs accepted")
		}
		bad := specs[0]
		bad.DependsOn = []int{42}
		if _, err := eng.Run([]TaskSpec{bad}, core.InterAdj, core.Options{}); err == nil {
			t.Error("unknown dependency accepted")
		}
	})
}

func TestArrivalsRespected(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 400, 400, 60)
	specsA, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	specsB, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, 100)
	specsB[0].Arrival = 2 * time.Second
	all := append(specsA, specsB...)
	rep := runOne(t, v, eng, all, core.InterAdj)
	if rep.Finish[100] < 2*time.Second {
		t.Fatalf("late task finished at %v, before its arrival", rep.Finish[100])
	}
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() time.Duration {
		v, eng := testEngine(0)
		r1 := buildRel(t, eng.Store, "r1", 800, 800, 500)
		r2 := buildRel(t, eng.Store, "r2", 800, 800, 20)
		specs1, _ := specFor(t, eng, &plan.SeqScan{Rel: r1}, 0)
		specs2, _ := specFor(t, eng, &plan.SeqScan{Rel: r2}, 10)
		rep := runOne(t, v, eng, append(specs1, specs2...), core.InterAdj)
		return rep.Elapsed
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %v != %v", i, got, first)
		}
	}
}

func TestTraceAndReportShape(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 200, 200, 30)
	specs, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, 0)
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	if len(rep.Trace) < 2 {
		t.Fatalf("trace = %v", rep.Trace)
	}
	if rep.Trace[0].Kind != "start" || rep.Trace[len(rep.Trace)-1].Kind != "complete" {
		t.Fatalf("trace order: %v", rep.Trace)
	}
	for _, ev := range rep.Trace {
		if ev.String() == "" {
			t.Fatal("empty trace string")
		}
	}
}

func TestQueryTasksErrors(t *testing.T) {
	_, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 10, 10, 10)
	g, err := plan.Decompose(&plan.SeqScan{Rel: rel})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := QueryTasks(g, map[int]cost.FragEstimate{}, 0); err == nil {
		t.Fatal("missing estimates accepted")
	}
}

func TestTempHelpers(t *testing.T) {
	temp := NewTemp(storage.NewSchema(storage.Column{Name: "a", Typ: storage.Int4}))
	var batch []storage.Tuple
	for _, v := range []int32{5, 3, 9, 3, 1} {
		batch = append(batch, storage.NewTuple(storage.IntVal(v)))
	}
	temp.Append(batch)
	temp.Append(nil)
	if temp.Len() != 5 || temp.SortedBy() != -1 {
		t.Fatal("temp basics")
	}
	if cmps := temp.Finalize(0); cmps <= 0 {
		t.Fatal("no comparisons charged")
	}
	if temp.SortedBy() != 0 {
		t.Fatal("not marked sorted")
	}
	if temp.CountRange(0, 3, 5) != 3 {
		t.Fatalf("CountRange = %d", temp.CountRange(0, 3, 5))
	}
	if temp.CountRange(0, 9, 3) != 0 {
		t.Fatal("inverted range")
	}
	lo, hi, ok := temp.Bounds(0)
	if !ok || lo != 1 || hi != 9 {
		t.Fatalf("bounds = %d,%d,%v", lo, hi, ok)
	}
	if view, _, ok := temp.ChunkCols(0, nil); temp.NumChunks() != 1 || !ok || view.N != 5 {
		t.Fatal("chunking")
	}
	if _, _, ok := temp.ChunkCols(5, nil); ok {
		t.Fatal("chunk past the end")
	}
	if n := temp.Finalize(-1); n != 0 {
		t.Fatal("finalize(-1) sorted")
	}
	empty := NewTemp(storage.Schema{})
	if _, _, ok := empty.Bounds(0); ok {
		t.Fatal("empty bounds")
	}
}

func TestHashTableHelpers(t *testing.T) {
	schema := storage.NewSchema(storage.Column{Name: "a", Typ: storage.Int4})
	h := NewColHashTable(nil, schema, 0, DefaultHashPartitions, 1)
	hb := h.Builder()
	cb := storage.NewColBatch(schema, 10)
	for i := int32(0); i < 10; i++ {
		cb.AppendTuple(storage.NewTuple(storage.IntVal(i % 3)))
	}
	if err := hb.InsertBatch(cb); err != nil {
		t.Fatal(err)
	}
	hb.Flush()
	if h.Len() != 10 {
		t.Fatalf("len = %d", h.Len())
	}
	h.Seal()
	if _, _, got := h.ProbeKey(0); got != 4 {
		t.Fatalf("probe(0) = %d", got)
	}
	if _, _, got := h.ProbeKey(99); got != 0 {
		t.Fatalf("probe(99) = %d", got)
	}
	if err := hb.InsertBatch(&storage.ColBatch{N: 1}); err == nil {
		t.Fatal("batch without the hash column accepted")
	}
	text := storage.NewColBatch(storage.NewSchema(storage.Column{Name: "s", Typ: storage.Text}), 1)
	text.AppendTuple(storage.NewTuple(storage.TextVal("x")))
	if err := hb.InsertBatch(text); err == nil {
		t.Fatal("text hash column accepted")
	}
}

func TestFig7StyleComparison(t *testing.T) {
	// A small version of the §3 experiment: 6 selection tasks, half
	// extremely IO-bound, half extremely CPU-bound, on the real executor.
	// INTER-WITH-ADJ must beat INTRA-ONLY; INTER-WITHOUT-ADJ must not
	// beat INTER-WITH-ADJ.
	elapsed := map[core.Policy]time.Duration{}
	for _, pol := range []core.Policy{core.IntraOnly, core.InterNoAdj, core.InterAdj} {
		v, eng := testEngine(0)
		var specs []TaskSpec
		for i := 0; i < 6; i++ {
			var pad int
			if i%2 == 0 {
				pad = int(eng.Params.TupleSizeForRate(65)) - 8 // IO-bound
			} else {
				pad = int(eng.Params.TupleSizeForRate(8)) - 8 // CPU-bound
			}
			rel := buildRel(t, eng.Store, fmt.Sprintf("r%d", i), 700, 700, pad)
			s, _ := specFor(t, eng, &plan.SeqScan{Rel: rel}, i*10)
			specs = append(specs, s...)
		}
		rep := runOne(t, v, eng, specs, pol)
		elapsed[pol] = rep.Elapsed
	}
	if !(elapsed[core.InterAdj] < elapsed[core.IntraOnly]) {
		t.Fatalf("INTER-WITH-ADJ %v !< INTRA-ONLY %v", elapsed[core.InterAdj], elapsed[core.IntraOnly])
	}
	if !(elapsed[core.InterAdj] <= elapsed[core.InterNoAdj]) {
		t.Fatalf("INTER-WITH-ADJ %v > INTER-WITHOUT-ADJ %v", elapsed[core.InterAdj], elapsed[core.InterNoAdj])
	}
}

func TestClusteredKeyOrderSavesIO(t *testing.T) {
	// When key order matches heap order (a clustered index), consecutive
	// TIDs share pages and the range driver charges roughly one IO per
	// page, not per tuple (§3: clustered index scans behave like
	// sequential scans).
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 1500, 1500, 30) // a = i: key-ordered heap
	ix, err := btree.BuildIndex("r_a", rel, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	specs, _ := specFor(t, eng, &plan.IndexScan{Rel: rel, Index: ix, Lo: 0, Hi: 1499}, 0)
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	if rep.Results[0].Len() != 1500 {
		t.Fatalf("rows = %d", rep.Results[0].Len())
	}
	// One IO per touched page (plus one per slave-partition boundary),
	// far below one per tuple.
	maxReads := rel.NPages() + 16
	if got := rep.Disk.TotalReads(); got > maxReads {
		t.Fatalf("clustered-order scan read %d pages, want <= %d", got, maxReads)
	}
}

func TestAggFragmentParallelPartials(t *testing.T) {
	// A grouped aggregate over a parallel scan: slave-local partials must
	// merge into exact totals whatever the degree.
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 3000, 50, 24) // 60 tuples per group
	root := &plan.Agg{
		Child:    &plan.SeqScan{Rel: rel},
		GroupCol: 0,
		Funcs: []plan.AggFunc{
			{Kind: plan.CountAll},
			{Kind: plan.Sum, Col: 0},
			{Kind: plan.Min, Col: 0},
			{Kind: plan.Max, Col: 0},
		},
	}
	specs, g := specFor(t, eng, root, 0)
	if len(specs) != 1 {
		t.Fatalf("specs = %d (agg absorbs into the scan fragment)", len(specs))
	}
	rep := runOne(t, v, eng, specs, core.InterAdj)
	res := rep.Results[g.Root.ID]
	if res.Len() != 50 {
		t.Fatalf("groups = %d, want 50", res.Len())
	}
	for _, tp := range res.Tuples() {
		k := tp.Vals[0].Int
		if tp.Vals[1].Int != 60 {
			t.Fatalf("group %d count = %d", k, tp.Vals[1].Int)
		}
		if tp.Vals[2].Int != 60*k {
			t.Fatalf("group %d sum = %d, want %d", k, tp.Vals[2].Int, 60*k)
		}
		if tp.Vals[3].Int != k || tp.Vals[4].Int != k {
			t.Fatalf("group %d min/max = %d/%d", k, tp.Vals[3].Int, tp.Vals[4].Int)
		}
	}
}

func TestAggGlobalEmptyInput(t *testing.T) {
	v, eng := testEngine(0)
	rel := buildRel(t, eng.Store, "r", 100, 100, 24)
	root := &plan.Agg{
		Child:    &plan.SeqScan{Rel: rel, Filter: expr.ColEqConst(0, "a", -5)}, // matches nothing
		GroupCol: -1,
		Funcs:    []plan.AggFunc{{Kind: plan.CountAll}},
	}
	specs, g := specFor(t, eng, root, 0)
	rep := runOne(t, v, eng, specs, core.IntraOnly)
	// No input rows: no groups at all (SQL would say COUNT=0; the engine
	// reports an empty grouping, which the facade can interpret).
	if got := rep.Results[g.Root.ID].Len(); got != 0 {
		t.Fatalf("rows = %d", got)
	}
}

// TestProbeColumnNotInt4 hand-builds fragment graphs whose probe column
// is text (Decompose rejects such joins, so SQL never reaches this):
// both the emitting probe and the probe fused into a root aggregate
// must fail with a KeyTypeError rather than probe with key 0, which
// would silently match the key-0 group.
func TestProbeColumnNotInt4(t *testing.T) {
	for _, fused := range []bool{false, true} {
		v, eng := testEngine(0)
		l := buildRel(t, eng.Store, "tl", 50, 10, 8)
		r := buildRel(t, eng.Store, "tr", 20, 10, 8)
		build := &plan.Fragment{ID: 0, Root: &plan.SeqScan{Rel: r}, Out: plan.HashOut, HashCol: 0}
		var root plan.Node = &plan.HashJoin{
			Left:  &plan.SeqScan{Rel: l},
			Right: &plan.FragScan{Frag: build, Schema: r.Schema},
			LCol:  1, RCol: 0,
		}
		if fused {
			root = &plan.Agg{Child: root, GroupCol: 0, Funcs: []plan.AggFunc{{Kind: plan.CountAll}}}
		}
		probe := &plan.Fragment{ID: 1, Root: root, Inputs: []*plan.Fragment{build}, Out: plan.RootOut}
		g := &plan.Graph{Fragments: []*plan.Fragment{build, probe}, Root: probe}
		ests, err := cost.EstimateGraph(eng.Params, g)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := QueryTasks(g, ests, 0)
		if err != nil {
			t.Fatal(err)
		}
		v.Run(func() { _, err = eng.Run(specs, core.InterAdj, core.Options{}) })
		var kerr *KeyTypeError
		if !errors.As(err, &kerr) || *kerr != (KeyTypeError{Side: "probe", Col: 1}) {
			t.Fatalf("fused=%v: error = %v, want a probe KeyTypeError on column 1", fused, err)
		}
	}
}
