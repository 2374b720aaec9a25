package xprs

// The join-kernel micro-benchmark behind `xprsbench -fig join` and
// BENCH_join.json: the radix-partitioned open-addressed hash table and
// the parallel merge sort measured head-to-head against inline replicas
// of the kernels they replaced (a Go map behind a mutex fed in batches,
// and sort.SliceStable with a comparison counter — exactly the seed
// executor's code shape), on the pipeline benchmark's data: a 5 000-row
// build side and a 30 000-row probe side with keys i mod 9 000.
//
// Wall-clock only: both sides run the same simulated work, so the
// virtual clock is out of the picture and the numbers isolate kernel
// quality.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"xprs/internal/exec"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// joinBenchData builds the benchmark relations in memory with the
// pipeline benchmark's shape.
func joinBenchData() (schema storage.Schema, build, probe []storage.Tuple) {
	schema = storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	)
	build = make([]storage.Tuple, pipelineBenchRightRows)
	for i := range build {
		build[i] = storage.NewTuple(
			storage.IntVal(int32(i)%9000),
			storage.TextVal(fmt.Sprintf("build-%05d", i)),
		)
	}
	probe = make([]storage.Tuple, pipelineBenchLeftRows)
	for i := range probe {
		probe[i] = storage.NewTuple(
			storage.IntVal(int32(i)%9000),
			storage.TextVal(fmt.Sprintf("probe-%05d", i)),
		)
	}
	return schema, build, probe
}

// JoinBenchResult is one measured run of the join-kernel benchmark.
type JoinBenchResult struct {
	Iterations     int `json:"iterations"`
	BuildRows      int `json:"build_rows"`
	ProbeRows      int `json:"probe_rows"`
	SortRows       int `json:"sort_rows"`
	HashPartitions int `json:"hash_partitions"`
	SortProcs      int `json:"sort_procs"`

	// Build+probe: map/mutex baseline vs radix-partitioned open table.
	BaselineBuildProbeNs float64 `json:"baseline_build_probe_ns_per_op"`
	KernelBuildProbeNs   float64 `json:"kernel_build_probe_ns_per_op"`
	BuildProbeSpeedup    float64 `json:"build_probe_speedup"`
	BuildProbeTuplesPerS float64 `json:"build_probe_tuples_per_sec"`
	BuildProbeAllocs     float64 `json:"kernel_build_probe_allocs_per_op"`
	BuildProbeBytes      float64 `json:"kernel_build_probe_bytes_per_op"`

	// Finalize sort: sort.SliceStable baseline vs parallel merge sort.
	BaselineSortNs float64 `json:"baseline_sort_ns_per_op"`
	KernelSortNs   float64 `json:"kernel_sort_ns_per_op"`
	SortSpeedup    float64 `json:"sort_speedup"`
	SortRowsPerSec float64 `json:"sort_rows_per_sec"`
	SortAllocs     float64 `json:"kernel_sort_allocs_per_op"`
	SortBytes      float64 `json:"kernel_sort_bytes_per_op"`
}

// MeasureJoin runs both kernel generations iters times and reports
// wall-clock throughput. It is the JSON-emitting source of
// BENCH_join.json.
// It compares kernel generations on the wall clock by design, never on
// the virtual clock.
//
//lint:allow vclockpurity — host-timing benchmark
func MeasureJoin(cfg Config, iters int) (*JoinBenchResult, error) {
	if iters <= 0 {
		iters = 20
	}
	schema, build, probe := joinBenchData()
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	parts := cfg.HashPartitions
	if parts <= 0 {
		parts = plan.SuggestHashParts(float64(len(build)))
	}
	procs := cfg.NProcs
	if procs <= 0 {
		procs = DefaultConfig().NProcs
	}

	// ---- build + probe ----

	// The seed executor's kernel: one shared map behind a mutex, one
	// lock round-trip per inserted batch with per-tuple column checks,
	// per-tuple map lookups on probe. Both rounds consume matches by
	// counting them, so the measured delta is the kernels alone.
	baselineRound := func() int64 {
		var mu sync.Mutex
		buckets := make(map[int32][]storage.Tuple)
		for lo := 0; lo < len(build); lo += batch {
			hi := min(lo+batch, len(build))
			ts := build[lo:hi]
			for i := range ts {
				if len(ts[i].Vals) < 1 {
					return -1
				}
			}
			mu.Lock()
			for _, t := range ts {
				k := t.Vals[0].Int
				buckets[k] = append(buckets[k], t)
			}
			mu.Unlock()
		}
		var sink int64
		for i := range probe {
			sink += int64(len(buckets[probe[i].Vals[0].Int]))
		}
		return sink
	}

	// The radix kernel, fed the same rows in executor-sized columnar
	// batches (converted once, outside the timed rounds): private
	// builder, seal, lock-free probes.
	toCols := func(ts []storage.Tuple) []*storage.ColBatch {
		var out []*storage.ColBatch
		for lo := 0; lo < len(ts); lo += batch {
			cb := storage.NewColBatch(schema, batch)
			for _, t := range ts[lo:min(lo+batch, len(ts))] {
				cb.AppendTuple(t)
			}
			out = append(out, cb)
		}
		return out
	}
	buildCols, probeCols := toCols(build), toCols(probe)
	kernelRound := func() (int64, error) {
		ht := exec.NewColHashTable(nil, schema, 0, parts, procs)
		hb := ht.Builder()
		for _, cb := range buildCols {
			if err := hb.InsertBatch(cb); err != nil {
				return 0, err
			}
		}
		hb.Flush()
		ht.Seal()
		var sink int64
		for _, cb := range probeCols {
			for _, k := range cb.Vecs[0].Ints {
				_, _, n := ht.ProbeKey(k)
				sink += int64(n)
			}
		}
		return sink, nil
	}

	// Warm up both and check they agree on the join result.
	wantSink := baselineRound()
	gotSink, err := kernelRound()
	if err != nil {
		return nil, err
	}
	if gotSink != wantSink {
		return nil, fmt.Errorf("joinbench: kernel checksum %d != baseline %d", gotSink, wantSink)
	}

	// Rounds alternate between the two generations and each round is
	// timed on its own; the reported figure is the per-round minimum.
	// Under a preemptible scheduler the minimum is the reproducible
	// cost — sums fold scheduling noise from whichever side the
	// interruption happened to land on.
	baseBP, kernBP := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < iters; i++ {
		start := time.Now()
		baselineRound()
		if d := time.Since(start); d < baseBP {
			baseBP = d
		}
		start = time.Now()
		if _, err := kernelRound(); err != nil {
			return nil, err
		}
		if d := time.Since(start); d < kernBP {
			kernBP = d
		}
	}

	// Allocation profile of the kernel rounds, measured apart from the
	// timing loop so the MemStats reads don't perturb the minima.
	var mBefore, mAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mBefore)
	for i := 0; i < iters; i++ {
		if _, err := kernelRound(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&mAfter)
	bpAllocs := float64(mAfter.Mallocs-mBefore.Mallocs) / float64(iters)
	bpBytes := float64(mAfter.TotalAlloc-mBefore.TotalAlloc) / float64(iters)

	// ---- Finalize sort ----

	// Sort input: the probe relation's rows, appended in executor-sized
	// batches like slave flushes.
	sortRows := probe

	// The seed kernel: sort.SliceStable over the materialized temp with
	// a counting comparator (the counter fed the clock charge).
	baselineSortRound := func() int64 {
		ts := append([]storage.Tuple(nil), sortRows...)
		var cmps int64
		sort.SliceStable(ts, func(i, j int) bool {
			cmps++
			return ts[i].Vals[0].Int < ts[j].Vals[0].Int
		})
		return cmps
	}

	kernelSortRound := func() int64 {
		temp := exec.NewTemp(schema)
		temp.SetSortProcs(procs)
		for lo := 0; lo < len(sortRows); lo += batch {
			hi := min(lo+batch, len(sortRows))
			temp.Append(sortRows[lo:hi])
		}
		return temp.Finalize(0)
	}

	baselineSortRound()
	kernelSortRound()
	baseSort, kernSort := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < iters; i++ {
		start := time.Now()
		baselineSortRound()
		if d := time.Since(start); d < baseSort {
			baseSort = d
		}
		start = time.Now()
		kernelSortRound()
		if d := time.Since(start); d < kernSort {
			kernSort = d
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&mBefore)
	for i := 0; i < iters; i++ {
		kernelSortRound()
	}
	runtime.ReadMemStats(&mAfter)
	sortAllocs := float64(mAfter.Mallocs-mBefore.Mallocs) / float64(iters)
	sortBytes := float64(mAfter.TotalAlloc-mBefore.TotalAlloc) / float64(iters)

	res := &JoinBenchResult{
		Iterations:     iters,
		BuildRows:      len(build),
		ProbeRows:      len(probe),
		SortRows:       len(sortRows),
		HashPartitions: parts,
		SortProcs:      min(procs, runtime.GOMAXPROCS(0)),

		BaselineBuildProbeNs: float64(baseBP.Nanoseconds()),
		KernelBuildProbeNs:   float64(kernBP.Nanoseconds()),
		BuildProbeSpeedup:    float64(baseBP) / float64(kernBP),
		BuildProbeTuplesPerS: float64(len(build)+len(probe)) / kernBP.Seconds(),
		BuildProbeAllocs:     bpAllocs,
		BuildProbeBytes:      bpBytes,

		BaselineSortNs: float64(baseSort.Nanoseconds()),
		KernelSortNs:   float64(kernSort.Nanoseconds()),
		SortSpeedup:    float64(baseSort) / float64(kernSort),
		SortRowsPerSec: float64(len(sortRows)) / kernSort.Seconds(),
		SortAllocs:     sortAllocs,
		SortBytes:      sortBytes,
	}
	return res, nil
}
