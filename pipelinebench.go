package xprs

// The pipeline micro-benchmark: a canonical scan -> hash-join -> agg
// query over synthetic relations, used by BenchmarkPipelineThroughput
// and by `xprsbench -fig pipeline` to track executor overhead (wall
// time and allocations per run) across PRs. The virtual-time answer is
// fixed; what this measures is the cost of the simulator/executor
// itself, which is exactly the overhead the batch-at-a-time pipeline
// is meant to keep negligible.

import (
	"fmt"
	"runtime"
	"time"
)

// PipelineBenchSize configures the canonical benchmark query.
const (
	pipelineBenchLeftRows  = 30000
	pipelineBenchRightRows = 5000
)

// pipelineBenchSQL joins the probe relation against the build relation
// and aggregates, exercising scan, filter, hash build, hash probe and
// two-phase aggregation — the full batch hot path.
const pipelineBenchSQL = "select bl.a, count(*) from bl, br where bl.a = br.a and bl.a between 0 and 4499 group by bl.a"

// NewPipelineBenchSystem builds a system preloaded with the benchmark
// relations bl (probe side) and br (build side).
func NewPipelineBenchSystem(cfg Config) (*System, error) {
	s := New(cfg)
	left := make([]struct {
		A int32
		B string
	}, pipelineBenchLeftRows)
	for i := range left {
		left[i].A = int32(i) % 9000
		left[i].B = fmt.Sprintf("probe-%05d", i)
	}
	if _, err := s.LoadRelation("bl", left); err != nil {
		return nil, err
	}
	right := make([]struct {
		A int32
		B string
	}, pipelineBenchRightRows)
	for i := range right {
		right[i].A = int32(i) % 9000
		right[i].B = fmt.Sprintf("build-%05d", i)
	}
	if _, err := s.LoadRelation("br", right); err != nil {
		return nil, err
	}
	return s, nil
}

// RunPipelineBenchQuery executes the canonical query once and returns
// the number of driver tuples scanned plus result groups.
func RunPipelineBenchQuery(s *System) (tuples int64, groups int, err error) {
	out, _, err := s.ExecSQL(pipelineBenchSQL, InterAdj)
	if err != nil {
		return 0, 0, err
	}
	return pipelineBenchLeftRows + pipelineBenchRightRows, out.Len(), nil
}

// PipelineBenchResult is one measured run of the pipeline benchmark.
type PipelineBenchResult struct {
	BatchSize    int     `json:"batch_size"`
	Iterations   int     `json:"iterations"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	Groups       int     `json:"result_groups"`
}

// MeasurePipeline runs the canonical query iters times against a fresh
// system and reports wall-clock throughput and allocation counts. It is
// the JSON-emitting twin of BenchmarkPipelineThroughput.
// It measures real throughput on the wall clock by design, never on
// the virtual clock.
//
//lint:allow vclockpurity — host-timing benchmark
func MeasurePipeline(cfg Config, iters int) (*PipelineBenchResult, error) {
	if iters <= 0 {
		iters = 5
	}
	s, err := NewPipelineBenchSystem(cfg)
	if err != nil {
		return nil, err
	}
	// Warm up after the GC, not before: the collector tears down pool
	// contents, so a pre-GC warm-up would leave the first measured op
	// re-filling every batch and session pool and the alloc figures
	// would track pool construction instead of the steady-state path.
	var before, after runtime.MemStats
	runtime.GC()
	if _, _, err := RunPipelineBenchQuery(s); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&before)
	start := time.Now()
	var tuples int64
	var groups int
	for i := 0; i < iters; i++ {
		n, g, err := RunPipelineBenchQuery(s)
		if err != nil {
			return nil, err
		}
		tuples += n
		groups = g
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	res := &PipelineBenchResult{
		BatchSize:    s.BatchSize(),
		Iterations:   iters,
		TuplesPerSec: float64(tuples) / wall.Seconds(),
		NsPerOp:      float64(wall.Nanoseconds()) / float64(iters),
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:   float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		Groups:       groups,
	}
	return res, nil
}
