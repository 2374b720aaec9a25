package exec

import (
	"fmt"
	"testing"

	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Wall-clock microbenchmarks for the executor kernels, on the pipeline
// benchmark's data shape (5 000-row build side, 30 000-row probe side,
// keys i mod 9 000). `xprsbench -fig join` measures the same kernels
// against replicas of their predecessors; these benchmarks track the
// kernels alone so `go test -bench` catches regressions in isolation.

const (
	benchBuildRows = 5000
	benchProbeRows = 30000
	benchKeyMod    = 9000
	benchBatch     = 1024
)

func benchSchema() storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	)
}

func benchRows(n int, tag string) []storage.Tuple {
	ts := make([]storage.Tuple, n)
	for i := range ts {
		ts[i] = storage.NewTuple(
			storage.IntVal(int32(i)%benchKeyMod),
			storage.TextVal(fmt.Sprintf("%s-%05d", tag, i)),
		)
	}
	return ts
}

// benchCols converts rows into executor-sized columnar batches.
func benchCols(rows []storage.Tuple) []*storage.ColBatch {
	var out []*storage.ColBatch
	for lo := 0; lo < len(rows); lo += benchBatch {
		cb := storage.NewColBatch(benchSchema(), benchBatch)
		for _, t := range rows[lo:min(lo+benchBatch, len(rows))] {
			cb.AppendTuple(t)
		}
		out = append(out, cb)
	}
	return out
}

// buildBenchTable inserts the build batches through a private builder
// and seals the table.
func buildBenchTable(b *testing.B, build []*storage.ColBatch) *ColHashTable {
	ht := NewColHashTable(nil, benchSchema(), 0, DefaultHashPartitions, 1)
	hb := ht.Builder()
	for _, cb := range build {
		if err := hb.InsertBatch(cb); err != nil {
			b.Fatal(err)
		}
	}
	hb.Flush()
	ht.Seal()
	return ht
}

// probeBench probes every key of the probe batches and counts matches.
func probeBench(ht *ColHashTable, probe []*storage.ColBatch) int64 {
	var sink int64
	for _, cb := range probe {
		for _, k := range cb.Vecs[0].Ints {
			_, _, n := ht.ProbeKey(k)
			sink += int64(n)
		}
	}
	return sink
}

// BenchmarkHashTableBuildProbe is the full join-kernel cycle: batched
// inserts through a private builder, seal, then lock-free probes.
func BenchmarkHashTableBuildProbe(b *testing.B) {
	build := benchCols(benchRows(benchBuildRows, "build"))
	probe := benchCols(benchRows(benchProbeRows, "probe"))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for b.Loop() {
		sink += probeBench(buildBenchTable(b, build), probe)
	}
	_ = sink
}

// BenchmarkHashTableProbeBatch isolates the probe side on a sealed
// table.
func BenchmarkHashTableProbeBatch(b *testing.B) {
	ht := buildBenchTable(b, benchCols(benchRows(benchBuildRows, "build")))
	probe := benchCols(benchRows(benchProbeRows, "probe"))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for b.Loop() {
		sink += probeBench(ht, probe)
	}
	_ = sink
}

// BenchmarkTempFinalize measures the parallel merge sort behind
// Temp.Finalize, fed with executor-sized append runs.
func BenchmarkTempFinalize(b *testing.B) {
	schema := benchSchema()
	rows := benchRows(benchProbeRows, "sort")
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		temp := NewTemp(schema)
		temp.SetSortProcs(1)
		for lo := 0; lo < len(rows); lo += benchBatch {
			hi := min(lo+benchBatch, len(rows))
			temp.Append(rows[lo:hi])
		}
		temp.Finalize(0)
	}
}

// BenchmarkAggEmit measures final-row emission from a populated
// aggregation state (one group per distinct key, count+sum+min+max).
func BenchmarkAggEmit(b *testing.B) {
	a := &plan.Agg{GroupCol: 0, Funcs: []plan.AggFunc{
		{Kind: plan.CountAll},
		{Kind: plan.Sum, Col: 0},
		{Kind: plan.Min, Col: 0},
		{Kind: plan.Max, Col: 0},
	}}
	st := newAggState(a, nil)
	partial := make(map[int32][]int64, benchKeyMod)
	for i := 0; i < benchProbeRows; i++ {
		k := int32(i) % benchKeyMod
		acc, ok := partial[k]
		if !ok {
			acc = initAccum(a.Funcs)
			partial[k] = acc
		}
		foldKey(acc, a.Funcs, k)
	}
	st.mergeInto(partial)
	outSchema := storage.NewSchema(
		storage.Column{Name: "k", Typ: storage.Int4},
		storage.Column{Name: "count", Typ: storage.Int4},
		storage.Column{Name: "sum", Typ: storage.Int4},
		storage.Column{Name: "min", Typ: storage.Int4},
		storage.Column{Name: "max", Typ: storage.Int4},
	)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		out := NewTemp(outSchema)
		if n := st.emit(out); n != benchKeyMod {
			b.Fatalf("emitted %d groups, want %d", n, benchKeyMod)
		}
	}
}
