package main

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"runtime/pprof"
	"time"

	"xprs"
	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/exec"
	"xprs/internal/expr"
	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/sqlmini"
	"xprs/internal/storage"
	"xprs/internal/vclock"
)

// ledger collects the per-layer measurements of one traced run: spans
// the benchmark records around its own calls into each layer, counts
// read from the replayed queries' reports, and the inputs of the
// kernel replays.
type ledger struct {
	spans map[string]*spanStat
	// Per-query counts from the replayed queries' reports.
	queries           int64
	tuplesIn, batches int64
	adjusts           int64
	reads             [3]int64
	series            []seriesEvent
	specs             [][]xprs.TaskSpec
	// Kernel replay inputs and counts.
	kernels               []kernelSpec
	predRows, predKept    int64
	pagesScanned, kernelQ int64
}

type spanStat struct {
	n     int64
	total time.Duration
}

func newLedger() *ledger { return &ledger{spans: make(map[string]*spanStat)} }

// span records one call of the named layer entry point that started at
// start, weighted as n units of work (rows, calls).
func (l *ledger) span(name string, start time.Time, n int64) {
	d := time.Since(start)
	s := l.spans[name]
	if s == nil {
		s = &spanStat{}
		l.spans[name] = s
	}
	s.n += n
	s.total += d
}

// per returns the mean time per unit of the named span in the given
// unit, or an error when the replay recorded nothing.
func (l *ledger) per(name string, unit time.Duration) (float64, error) {
	s := l.spans[name]
	if s == nil || s.n == 0 {
		return 0, fmt.Errorf("ledger: no %s spans recorded", name)
	}
	return float64(s.total) / float64(s.n) / float64(unit), nil
}

// seriesEvent is one query's trip through the scheduler's telemetry.
type seriesEvent struct {
	submitted, admitted, done time.Duration
}

// addReport folds one replayed query's report into the counts.
func (l *ledger) addReport(rep *xprs.Report, specs []xprs.TaskSpec) {
	l.queries++
	for _, f := range rep.Frags {
		l.tuplesIn += f.TuplesIn
		l.batches += f.Batches
		l.adjusts += int64(len(f.Degrees) - 1)
	}
	// A session's disk statistics are cumulative from its start, and
	// each replay runs in one session: keep the largest.
	for c := range l.reads {
		l.reads[c] = max(l.reads[c], rep.Disk.Reads[c])
	}
	l.series = append(l.series, seriesEvent{rep.SubmittedAt, rep.AdmittedAt, rep.SubmittedAt + rep.Elapsed})
	l.specs = append(l.specs, specs)
}

// replayPlan repeats ExecSQL's compile steps for one text through each
// layer's public function, timing each step.
func replayPlan(l *ledger, sys *xprs.System, sql string) (*xprs.OptResult, []xprs.TaskSpec, error) {
	t := time.Now()
	parsed, err := sqlmini.Parse(sql)
	l.span("sqlmini.parse", t, 1)
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	oq, binder, err := sqlmini.CompileWithBinder(parsed, sys)
	l.span("sqlmini.bind", t, 1)
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	res, err := sys.Optimize(oq, xprs.OptOptions{Cost: xprs.ParCost, Shape: xprs.Bushy})
	l.span("opt.optimize", t, 1)
	if err != nil {
		return nil, nil, err
	}
	root := res.Plan
	if len(parsed.Aggs) > 0 {
		t = time.Now()
		groupCol, funcs, err := sqlmini.ResolveAggregates(parsed, binder, res.RelOrder)
		l.span("sqlmini.bind", t, 0)
		if err != nil {
			return nil, nil, err
		}
		root = &plan.Agg{Child: res.Plan, GroupCol: groupCol, Funcs: funcs}
	}
	// Without aggregates the optimizer already decomposed and estimated
	// the plan; the two steps are timed again on its result.
	t = time.Now()
	g, err := plan.Decompose(root)
	l.span("plan.decompose", t, 1)
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	ests, err := cost.EstimateGraph(sys.Params(), g)
	l.span("cost.estimate_graph", t, 1)
	if err != nil {
		return nil, nil, err
	}
	if len(parsed.Aggs) > 0 {
		res = &xprs.OptResult{
			Plan: root, Graph: g, Estimates: ests,
			RelOrder: res.RelOrder, SeqCost: res.SeqCost, ParCost: res.ParCost,
		}
	}
	t = time.Now()
	specs, err := sys.PlanTasks(res, 0)
	l.span("xprs.plan_tasks", t, 1)
	return res, specs, err
}

// replaySQL replays ExecSQL for each text reps times: the compile steps
// through replayPlan, then the execution through one scheduler session
// with a timed SubmitWith per query. Each replayed plan and answer must
// match ExecSQL's for the same text.
func replaySQL(l *ledger, sys *xprs.System, texts []string, reps int) error {
	type planned struct {
		res   *xprs.OptResult
		specs []xprs.TaskSpec
		want  map[int32]int32
		fails bool
	}
	var qs []planned
	var chk groupChecker
	for _, sql := range texts {
		out, execRes, err := sys.ExecSQL(sql, xprs.InterAdj)
		var want map[int32]int32
		if err == nil {
			if want, err = chk.groups(out); err != nil {
				return err
			}
		}
		fails := err != nil
		for r := 0; r < reps; r++ {
			res, specs, err := replayPlan(l, sys, sql)
			if err != nil {
				return fmt.Errorf("replay %q: %w", sql, err)
			}
			if fails {
				// ExecSQL returns no plan for a query that failed.
			} else if got, w := xprs.ExplainPlan(res), xprs.ExplainPlan(execRes); got != w {
				return fmt.Errorf("replay %q: plan differs from ExecSQL's:\n%s\nvs\n%s", sql, got, w)
			}
			qs = append(qs, planned{res, specs, want, fails})
		}
	}
	return sys.Serve(xprs.InterAdj, xprs.SchedOptions{}, xprs.Admission{}, func(sc *xprs.Scheduler) error {
		for i, q := range qs {
			t := time.Now()
			h, err := sc.SubmitWith(xprs.SubmitOptions{}, q.specs)
			l.span("exec.submit", t, 1)
			if err != nil {
				return err
			}
			rep, err := h.Wait()
			if (err != nil) != q.fails {
				return fmt.Errorf("replayed query %d: error %v, ExecSQL failed: %v", i, err, q.fails)
			}
			if err != nil {
				continue
			}
			got, err := chk.groups(rep.Results[q.res.Graph.Root.ID])
			if err != nil {
				return err
			}
			if !maps.Equal(got, q.want) {
				return fmt.Errorf("replayed query %d: answer differs from ExecSQL's", i)
			}
			l.addReport(rep, q.specs)
		}
		return nil
	})
}

// kernelSpec is one query's scan/join shape for the kernel replays:
// the relations it reads, and a hash join of rels[0] (probe, filtered
// by lo <= a <= hi) against rels[1] (build) on column a.
type kernelSpec struct {
	rels   []*storage.Relation
	lo, hi int32
}

// kernelMin is how long the kernel replay repeats over its specs;
// emitBatch is the row capacity of its join output batches.
const (
	kernelMin = 300 * time.Millisecond
	emitBatch = 1024
)

// replayKernels times page decode, the range predicate, hash build,
// probe and join emit, and the output temp's Finalize over each spec,
// repeating the specs for at least kernelMin.
func replayKernels(l *ledger) error {
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < kernelMin; rep++ {
		for _, k := range l.kernels {
			if err := replayKernel(l, k); err != nil {
				return err
			}
		}
	}
	return nil
}

func replayKernel(l *ledger, k kernelSpec) error {
	// Decode into one owned batch per page, allocated untimed.
	// Physical relations return their shared decode cache instead.
	dsts := make([][]*storage.ColBatch, len(k.rels))
	for i, rel := range k.rels {
		for p := int64(0); p < rel.NPages(); p++ {
			dsts[i] = append(dsts[i], storage.NewColBatch(rel.Schema, storage.TuplesPerPage(int(rel.Stats().AvgTupleSize))))
		}
	}
	decoded := make([][]*storage.ColBatch, len(k.rels))
	t := time.Now()
	var rows int64
	for i, rel := range k.rels {
		for p, dst := range dsts[i] {
			b, err := rel.PageColsInto(int64(p), dst)
			if err != nil {
				return err
			}
			decoded[i] = append(decoded[i], b)
			rows += int64(b.N)
		}
	}
	l.span("storage.decode", t, rows)
	for _, rel := range k.rels {
		l.pagesScanned += rel.NPages()
	}
	l.kernelQ++

	pred := expr.CompileColPred(expr.ColRange(0, "a", k.lo, k.hi))
	probe, build := decoded[0], decoded[1]
	sels := make([][]int32, len(probe))
	t = time.Now()
	rows = 0
	for i, b := range probe {
		rows += int64(b.N)
		sel, err := pred(b, nil, nil)
		if err != nil {
			return err
		}
		sels[i] = sel
		l.predRows += int64(b.N)
		l.predKept += int64(len(sel))
	}
	l.span("expr.pred", t, rows)

	var nbuild int64
	for _, b := range build {
		nbuild += int64(b.N)
	}
	schema := k.rels[1].Schema
	t = time.Now()
	ht := exec.NewColHashTable(nil, schema, 0, plan.SuggestHashParts(float64(nbuild)), 1)
	bld := ht.Builder()
	for _, b := range build {
		if err := bld.InsertBatch(b); err != nil {
			return err
		}
	}
	bld.Flush()
	ht.Seal()
	l.span("exec.hash_build", t, nbuild)

	type match struct {
		l      *storage.ColBatch
		lrow   int
		r      *storage.ColBatch
		lo, hi int32
	}
	var matches []match
	var nprobe, nout int64
	t = time.Now()
	for i, b := range probe {
		keys := b.Vecs[0].Ints
		for _, row := range sels[i] {
			st, lo, n := ht.ProbeKey(keys[row])
			if n > 0 {
				matches = append(matches, match{b, int(row), st, lo, lo + n})
				nout += int64(n)
			}
		}
		nprobe += int64(len(sels[i]))
	}
	l.span("exec.hash_probe", t, nprobe)

	for _, m := range matches {
		for r := m.lo; r < m.hi; r++ {
			if got, want := m.r.Vecs[0].Ints[r], m.l.Vecs[0].Ints[m.lrow]; got != want {
				return fmt.Errorf("kernel replay: probe returned key %d for %d", got, want)
			}
		}
	}

	// Emit into output batches allocated untimed, then copy them into
	// the temp whose Finalize is timed.
	joined := k.rels[0].Schema.Concat(schema)
	outs := make([]*storage.ColBatch, (nout+emitBatch-1)/emitBatch)
	for i := range outs {
		outs[i] = storage.NewColBatch(joined, emitBatch)
	}
	var emitted int64
	t = time.Now()
	for _, m := range matches {
		for r := m.lo; r < m.hi; r++ {
			outs[emitted/emitBatch].AppendJoined(m.l, m.lrow, m.r, int(r))
			emitted++
		}
	}
	l.span("exec.join_emit", t, emitted)
	tmp := exec.NewTemp(joined)
	for _, out := range outs {
		tmp.AppendCols(out)
	}
	if n := int64(tmp.Len()); n != nout {
		return fmt.Errorf("kernel replay: emitted %d rows, probe matched %d", n, nout)
	}
	t = time.Now()
	tmp.Finalize(0)
	l.span("exec.finalize", t, emitted)
	return nil
}

// replayController drives a fresh core.Controller through the replayed
// queries' task graphs: each query's ready tasks are submitted, started
// tasks complete in start order, and every Submit and Complete call is
// timed.
func replayController(l *ledger, env core.Env) error {
	ctl := core.NewController(env, core.InterAdj, core.Options{})
	for _, specs := range l.specs {
		done := make(map[int]bool, len(specs))
		submitted := make(map[int]bool, len(specs))
		var running []*core.Task
		started := func(d core.Decision) {
			for _, s := range d.Starts {
				running = append(running, s.Task)
			}
		}
		submitReady := func() {
			var ready []*core.Task
			for _, sp := range specs {
				if submitted[sp.Task.ID] {
					continue
				}
				ok := true
				for _, dep := range sp.DependsOn {
					ok = ok && done[dep]
				}
				if ok {
					submitted[sp.Task.ID] = true
					ready = append(ready, sp.Task)
				}
			}
			if len(ready) > 0 {
				t := time.Now()
				d := ctl.Submit(ready...)
				l.span("core.decide", t, 1)
				started(d)
			}
		}
		submitReady()
		for len(done) < len(specs) {
			if len(running) == 0 {
				return fmt.Errorf("controller replay: %d of %d tasks done and none running", len(done), len(specs))
			}
			task := running[0]
			running = running[1:]
			t := time.Now()
			d := ctl.Complete(task)
			l.span("core.decide", t, 1)
			started(d)
			done[task.ID] = true
			submitReady()
		}
	}
	return nil
}

// Virtual-clock replay shape: as many sleepers as the machine has
// processors, each sleeping vclockSleeps times.
const vclockSleeps = 4000

// replayVclock times Sleep hand-offs between registered goroutines of a
// fresh virtual clock.
func replayVclock(l *ledger, procs int) {
	v := vclock.NewVirtual()
	done := make(chan struct{}, procs) // one send per sleeper
	t := time.Now()
	v.Run(func() {
		for g := 0; g < procs; g++ {
			step := time.Duration(g+1) * time.Microsecond
			v.Go(func() {
				for i := 0; i < vclockSleeps; i++ {
					v.Sleep(step)
				}
				done <- struct{}{}
			})
		}
		v.Sleep(time.Duration(procs+1) * vclockSleeps * time.Microsecond)
	})
	for g := 0; g < procs; g++ {
		<-done
	}
	l.span("vclock.handoff", t, int64(procs*vclockSleeps))
}

// seriesCalls is the minimum number of obs.Series calls the replay
// times.
const seriesCalls = 200000

// replaySeries feeds the replayed queries' telemetry, the calls the
// scheduler's master loop makes per query, into a fresh obs.Series.
func replaySeries(l *ledger) error {
	if len(l.series) == 0 {
		return fmt.Errorf("series replay: no queries replayed")
	}
	var now, base time.Duration
	s := obs.NewSeries(time.Second, 240, func() time.Duration { return now })
	var calls int64
	t := time.Now()
	for calls < seriesCalls {
		for _, e := range l.series {
			now = base + e.submitted
			s.Count("submitted", 1)
			s.Sample("admit_queue", 1)
			s.Sample("running", 1)
			now = base + e.admitted
			s.Count("admitted", 1)
			s.Observe("queue_wait_us", int64((e.admitted-e.submitted)/time.Microsecond))
			now = base + e.done
			s.Count("completed", 1)
			s.Observe("response_us", int64((e.done-e.submitted)/time.Microsecond))
			calls += 7
		}
		base = now
	}
	l.span("obs.series", t, calls)
	return nil
}

// perLayer runs the ledger: an untraced pass and a traced pass of d/2
// each (answers and virtual statistics must match), then the replays.
func perLayer(def *workloadDef, seed int64, d time.Duration) (*result, error) {
	b, err := def.setup(seed, false)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	// The CPU profile covers the untraced pass, so the shares describe
	// the path that runs with Observe off; obs.trace_overhead_frac is
	// Observe's cost.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := measure(b, def.rounds(d/2))
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	b = nil

	tb, err := def.setup(seed, true)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	runtime.GC()
	traced, err := measure(tb, def.rounds(d/2))
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	// Both passes start from a fresh set-up, so round i of one must
	// match round i of the other.
	for i := 0; i < len(plain.digests) && i < len(traced.digests); i++ {
		if plain.digests[i] != traced.digests[i] {
			return nil, fmt.Errorf("round %d: traced digest %s, untraced %s", i, traced.digests[i], plain.digests[i])
		}
	}

	l := newLedger()
	if err := tb.replay(l); err != nil {
		return nil, err
	}
	if l.queries == 0 || len(l.kernels) == 0 {
		return nil, fmt.Errorf("replay recorded no queries or kernels")
	}
	cfg := benchConfig(false)
	if err := replayController(l, exec.New(nil, nil, cost.DefaultParams(cfg.Disk, cfg.NProcs)).Env); err != nil {
		return nil, err
	}
	replayVclock(l, cfg.NProcs)
	if err := replaySeries(l); err != nil {
		return nil, err
	}
	if err := replayKernels(l); err != nil {
		return nil, err
	}

	m := make(map[string]metric)
	for _, s := range []struct {
		metric, span string
		unit         time.Duration
	}{
		{"sqlmini.parse_us", "sqlmini.parse", time.Microsecond},
		{"sqlmini.bind_us", "sqlmini.bind", time.Microsecond},
		{"opt.optimize_us", "opt.optimize", time.Microsecond},
		{"cost.estimate_graph_us", "cost.estimate_graph", time.Microsecond},
		{"plan.decompose_us", "plan.decompose", time.Microsecond},
		{"xprs.plan_tasks_us", "xprs.plan_tasks", time.Microsecond},
		{"exec.submit_us", "exec.submit", time.Microsecond},
		{"obs.series_ns_per_call", "obs.series", time.Nanosecond},
		{"core.decide_us", "core.decide", time.Microsecond},
		{"vclock.handoff_ns", "vclock.handoff", time.Nanosecond},
		{"storage.decode_ns_per_row", "storage.decode", time.Nanosecond},
		{"expr.pred_ns_per_row", "expr.pred", time.Nanosecond},
		{"exec.hash_build_ns_per_row", "exec.hash_build", time.Nanosecond},
		{"exec.hash_probe_ns_per_row", "exec.hash_probe", time.Nanosecond},
		{"exec.join_emit_ns_per_row", "exec.join_emit", time.Nanosecond},
		{"exec.finalize_ns_per_row", "exec.finalize", time.Nanosecond},
	} {
		v, err := l.per(s.span, s.unit)
		if err != nil {
			return nil, err
		}
		unit := "us"
		if s.unit == time.Nanosecond {
			unit = "ns"
		}
		m[s.metric] = metric{v, unit}
	}
	q := float64(l.queries)
	attempted := float64(plain.attempted)
	m["core.adjusts_per_query"] = metric{float64(l.adjusts) / q, "count"}
	m["exec.tuples_per_query"] = metric{float64(l.tuplesIn) / q, "count"}
	m["exec.batches_per_query"] = metric{float64(l.batches) / q, "count"}
	m["diskmodel.reads_seq_per_query"] = metric{float64(l.reads[0]) / q, "count"}
	m["diskmodel.reads_almostseq_per_query"] = metric{float64(l.reads[1]) / q, "count"}
	m["diskmodel.reads_random_per_query"] = metric{float64(l.reads[2]) / q, "count"}
	m["storage.pages_per_query"] = metric{float64(l.pagesScanned) / float64(l.kernelQ), "count"}
	m["expr.selectivity"] = metric{float64(l.predKept) / float64(l.predRows), "frac"}
	m["xprs.plan_cache_hit_frac"] = metric{float64(plain.planHits) / attempted, "frac"}
	m["runtime.allocs_per_query"] = metric{float64(m1.Mallocs-m0.Mallocs) / attempted, "count"}
	m["runtime.alloc_kb_per_query"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / attempted, "KiB"}
	m["runtime.gc_per_1k_queries"] = metric{float64(m1.NumGC-m0.NumGC) * 1000 / attempted, "count"}
	m["obs.trace_overhead_frac"] = metric{
		(traced.busy.Seconds()/float64(traced.attempted))/(plain.busy.Seconds()/attempted) - 1, "frac"}
	for layer, share := range shares {
		m["cpu_share."+layer] = metric{share, "frac"}
	}
	return &result{
		Correct:   true,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}
