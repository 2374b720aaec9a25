package exec

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"xprs/internal/core"
	"xprs/internal/obs"
	"xprs/internal/storage"
)

// driver is the partitioning strategy of one fragment's driving scan
// (§2.4): page partitioning, range partitioning, or merge-range
// partitioning. Implementations are stateless beyond construction; all
// mutable state lives in assignments and reports.
type driver interface {
	// initial splits the whole scan into degree assignments. An
	// assignment may be nil (more slaves than work); such slaves exit
	// immediately.
	initial(degree int) ([]assignment, error)
	// repartition redistributes the remaining work reported by paused
	// slaves over degree new assignments.
	repartition(remaining []report, degree int) ([]assignment, error)
	// run executes one slave over its (possibly re-assigned) work,
	// honoring the pause protocol through sc.checkpoint.
	run(sc *slaveCtx) error
}

// assignment is a driver-specific work share handed to one slave.
type assignment interface{}

// report is a driver-specific description of one paused slave's
// remaining work.
type report interface{}

// slaveState is the master-visible state of one slave backend.
type slaveState struct {
	slot    int
	assign  assignment
	pending assignment // next assignment, set by the master during a round
	// curProgress is published by the slave at every checkpoint so the
	// master can compute maxpage / remaining intervals.
	progress report
	reported bool
	done     bool
	reportCh chan struct{}
	resumeCh chan struct{}
	// startAt / obsTid back the slave's lifetime span in the trace.
	startAt time.Duration
	obsTid  int
}

// runningTask is one executing fragment: its slaves, degree, and the
// §2.4 adjustment protocol state.
type runningTask struct {
	eng  *Engine
	task *core.Task
	fr   *fragRun
	drv  driver

	mu        sync.Mutex
	slaves    map[int]*slaveState
	nextSlot  int
	degree    int
	round     bool // an adjustment round is active
	active    int  // number of live slaves
	completed bool // completion has been posted
	failure   error

	// Observability state (guarded by mu): run-relative launch time,
	// degree history and completed-adjustment count for FragStat.
	startAt time.Duration
	degrees []int
	reparts int
}

// fragStat summarizes the task's execution for Report.Frags.
func (rt *runningTask) fragStat(finish time.Duration) FragStat {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return FragStat{
		Name:         rt.task.Name,
		Start:        rt.startAt,
		Finish:       finish,
		Degrees:      slices.Clone(rt.degrees),
		Slaves:       rt.nextSlot,
		Repartitions: rt.reparts,
		TuplesIn:     rt.fr.statTuplesIn.Load(),
		TuplesOut:    rt.fr.statTuplesOut.Load(),
		Batches:      rt.fr.statBatches.Load(),
	}
}

// launch starts the task's slave backends at the given degree.
func (rt *runningTask) launch(degree int) error {
	assigns, err := rt.drv.initial(degree)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	rt.degree = degree
	rt.degrees = append(rt.degrees, degree)
	for _, a := range assigns {
		if a == nil {
			continue
		}
		rt.spawnLocked(a)
	}
	empty := rt.active == 0
	rt.mu.Unlock()
	if empty {
		// Nothing to scan (empty relation): complete immediately.
		rt.complete(nil)
	}
	return nil
}

// spawnLocked registers and starts one slave goroutine. Caller holds
// rt.mu.
func (rt *runningTask) spawnLocked(a assignment) {
	sc := rt.eng.getSlaveCtx()
	s := &sc.stateVal
	*s = slaveState{slot: rt.nextSlot, assign: a}
	rt.nextSlot++
	rt.slaves[s.slot] = s
	rt.active++
	rt.eng.mSlaves.Inc()
	if rt.fr.tracing() {
		s.startAt = rt.eng.now()
		s.obsTid = rt.eng.Trace.Lane(obs.PidTasks, fmt.Sprintf("%s/s%d", rt.task.Name, s.slot))
	}
	sc.rt, sc.state = rt, s
	rt.eng.Clock.Go(sc.goFn)
}

// run is the slave goroutine body, pre-bound into goFn when the context
// is first created so a spawn allocates neither a closure nor scratch.
func (sc *slaveCtx) run() {
	rt, s := sc.rt, sc.state
	// Park before any side effect so simultaneously spawned slaves
	// touch the disk queues in a deterministic order.
	rt.eng.Clock.YieldOrdered(slaveKey(rt.task.ID, s.slot))
	err := rt.drv.run(sc)
	sc.flushAll()
	// The slave's state is embedded in the context, so the context can
	// only recycle once the master provably holds no reference: slaveExit
	// reports whether an adjustment round might still read the state.
	if rt.slaveExit(s, err) {
		rt.eng.putSlaveCtx(sc)
	}
}

// slaveExit removes a finished slave, feeding any active adjustment
// round and posting task completion when the last slave leaves. It
// returns whether the slave's state is safe to recycle: with no round
// active at removal the master cannot collect this slave as a
// participant anymore (it is out of rt.slaves), and a finished round
// never revisits its participants, so the state is unreferenced. During
// an active round the master may still read done/progress after the
// report signal, so the context is abandoned to the GC instead.
func (rt *runningTask) slaveExit(s *slaveState, err error) bool {
	rt.mu.Lock()
	if err != nil && rt.failure == nil {
		rt.failure = err
	}
	delete(rt.slaves, s.slot)
	rt.active--
	last := rt.active == 0 && !rt.completed
	if last {
		rt.completed = true
	}
	var reportCh chan struct{}
	if rt.round && !s.reported {
		s.reported = true
		s.done = true
		reportCh = s.reportCh
	}
	recycle := !rt.round
	failure := rt.failure
	rt.mu.Unlock()
	if rt.fr.tracing() {
		now := rt.eng.now()
		rt.eng.Trace.Span(s.startAt, now-s.startAt, obs.PidTasks, s.obsTid, "slave",
			fmt.Sprintf("%s/s%d", rt.task.Name, s.slot), "")
	}
	if reportCh != nil {
		rt.eng.Clock.Signal(reportCh)
	}
	if last {
		rt.complete(failure)
	}
	return recycle
}

// complete finalizes the fragment output and posts the completion event.
func (rt *runningTask) complete(err error) {
	if err == nil {
		rt.fr.finalize()
	}
	rt.eng.events.Post(taskDone{task: rt.task, rt: rt, err: err})
}

// adjust runs the §2.4 dynamic parallelism-adjustment protocol
// (Figures 5 and 6): signal all participating slaves, collect their
// progress, compute the new partition, and resume them under the new
// degree, starting or retiring slaves as needed. It is called only from
// the master backend.
func (rt *runningTask) adjust(newDegree int) error {
	rt.mu.Lock()
	if rt.active == 0 || rt.round {
		rt.mu.Unlock()
		return nil // task already finished (or being adjusted)
	}
	rt.round = true
	// Phase 1: the master "sends a signal to all participating slave
	// backends" — materialized as per-slave report/resume channels the
	// slaves observe at their next checkpoint. Participants are ordered
	// by slot: the repartition below assigns fresh strides by position,
	// and map iteration order must not leak into the partition.
	participants := make([]*slaveState, 0, len(rt.slaves))
	for _, s := range rt.slaves {
		s.reported = false
		s.done = false
		s.reportCh = make(chan struct{}, 1)
		s.resumeCh = make(chan struct{}, 1)
		participants = append(participants, s)
	}
	oldDegree := rt.degree
	slices.SortFunc(participants, func(a, b *slaveState) int { return a.slot - b.slot })
	rt.mu.Unlock()
	if rt.fr.tracing() {
		rt.fr.traceInstant("protocol", "adjust-signal", fmt.Sprintf(
			"degree %d → %d: pause signalled to %d slaves", oldDegree, newDegree, len(participants)))
	}

	// Phase 2: wait for every participant to report its progress (or
	// exit). Slaves blocked in a disk read report at their next page
	// boundary; virtual time advances underneath this wait.
	for _, s := range participants {
		rt.eng.Clock.WaitSignal(s.reportCh)
	}

	rt.mu.Lock()
	var remaining []report
	var live []*slaveState
	for _, s := range participants {
		if s.done {
			continue
		}
		remaining = append(remaining, s.progress)
		live = append(live, s)
	}
	if len(live) == 0 {
		// Everyone finished while we were collecting; nothing to adjust.
		rt.round = false
		rt.mu.Unlock()
		return nil
	}
	assigns, err := rt.drv.repartition(remaining, newDegree)
	if err != nil {
		// Abort the round: resume everyone with their old assignments.
		for _, s := range live {
			s.pending = s.assign
		}
		rt.round = false
		resumes := resumeChannels(live)
		rt.mu.Unlock()
		for _, ch := range resumes {
			rt.eng.Clock.Signal(ch)
		}
		return fmt.Errorf("exec: adjusting task %d: %w", rt.task.ID, err)
	}

	// Phase 3: hand the first len(live) non-nil assignments to the
	// surviving slaves (nil retires them) and spawn new slaves for the
	// rest.
	idx := 0
	for _, s := range live {
		if idx < len(assigns) {
			s.pending = assigns[idx]
			idx++
		} else {
			s.pending = nil // retire
		}
	}
	for ; idx < len(assigns); idx++ {
		if assigns[idx] != nil {
			rt.spawnLocked(assigns[idx])
		}
	}
	rt.degree = newDegree
	rt.degrees = append(rt.degrees, newDegree)
	rt.reparts++
	spawned := rt.nextSlot
	rt.round = false
	resumes := resumeChannels(live)
	rt.mu.Unlock()
	rt.eng.mReparts.Inc()
	if rt.fr.tracing() {
		rt.fr.traceInstant("protocol", "resume", fmt.Sprintf(
			"repartitioned over degree %d: %d surviving slaves resumed, %d slaves ever spawned",
			newDegree, len(live), spawned))
	}
	for _, ch := range resumes {
		rt.eng.Clock.Signal(ch)
	}
	return nil
}

func resumeChannels(live []*slaveState) []chan struct{} {
	out := make([]chan struct{}, len(live))
	for i, s := range live {
		out[i] = s.resumeCh
	}
	return out
}

// slaveKey builds a stable ordering identity for a slave goroutine.
func slaveKey(taskID, slot int) int64 {
	return int64(taskID)<<20 | int64(slot)
}

// Degree returns the task's current degree of parallelism.
func (rt *runningTask) Degree() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.degree
}

// slaveCtx is the per-slave execution context: CPU accounting, output
// buffering, batch scratch space, and the slave side of the adjustment
// protocol.
type slaveCtx struct {
	rt    *runningTask
	state *slaveState

	// stateVal is the embedded backing for state: one spawn's
	// master-visible slave state rides in the pooled context instead of
	// a per-spawn heap allocation. See slaveExit for when it may be
	// reused.
	stateVal slaveState

	// goFn is the slave goroutine body bound to this context once at
	// creation; pooled contexts hand the same func value to Clock.Go on
	// every reuse, so spawning allocates no closure.
	goFn func()

	// cpuDebtPs is accumulated CPU picoseconds not yet slept. Debt is
	// integral so that total slept time is a pure function of the total
	// charge, however the charges were grouped into batches: flushes
	// sleep whole nanoseconds and carry the sub-nanosecond remainder.
	cpuDebtPs int64
	// aggLocal is this slave's private accumulator table when the
	// fragment root is an Agg (two-phase parallel aggregation).
	aggLocal map[int32][]int64
	// aggSlab backs aggLocal's accumulators: groups slice out of shared
	// chunks instead of allocating per group. Full chunks are simply
	// abandoned to the live accumulators and a fresh one started.
	aggSlab []int64

	// colPageBuf is the reusable decode target for generator-backed page
	// reads; colView/colViewVecs back the sub-batch views the page driver
	// slices a fetched page into; tempView/tempVecs back temp-chunk views
	// the same way.
	colPageBuf  *storage.ColBatch
	colView     storage.ColBatch
	colViewVecs []storage.Vec
	tempView    storage.ColBatch
	tempVecs    []storage.Vec
	// sels holds two selection-scratch buffers per filter slot (the
	// ping-pong pair); colOuts holds one output batch per emitting slot.
	// Slot indexes are assigned at pipeline compile time: compiled
	// closures are shared by every slave of the fragment, so their
	// mutable scratch lives here.
	sels    [][]int32
	colOuts []*storage.ColBatch
	// hb is this slave's private hash-table builder when the fragment
	// output is a hash table: batches partition without locking, and
	// flushAll publishes the buffers at slave exit. hbScratch is its
	// pooled backing storage (builderIn re-targets it per table, keeping
	// the partition-buffer slice).
	hb        *ColBuilder
	hbScratch ColBuilder
	// aggDense is this slave's dense aggregation window (with aggBase its
	// anchor); aggSrc is per-function source-vector scratch.
	aggDense *denseScratch
	aggBase  int32
	aggSrc   [][]int32
	// inflightQ is the page driver's readahead queue scratch.
	inflightQ []inflight
}

// reset clears the context for pooling: references to the finished run
// drop, capacity-bearing scratch survives. The aggregation slab must
// not survive — mergeInto adopts slab-backed accumulator slices into
// the fragment's shared state.
func (sc *slaveCtx) reset() {
	sc.rt, sc.state = nil, nil
	sc.stateVal = slaveState{}
	sc.cpuDebtPs = 0
	sc.aggLocal = nil
	sc.aggSlab = nil
	// colPageBuf is retained: fetchCols re-Inits it per relation schema.
	sc.colView = storage.ColBatch{}
	sc.tempView = storage.ColBatch{}
	clear(sc.colViewVecs)
	clear(sc.tempVecs)
	sc.hb = nil
	sc.hbScratch.ht = nil
	sc.aggDense = nil
	sc.aggBase = 0
	sc.inflightQ = sc.inflightQ[:0]
}

// selScratch returns pointers to the slot's two selection buffers.
func (sc *slaveCtx) selScratch(slot int) (*[]int32, *[]int32) {
	for len(sc.sels) < 2*(slot+1) {
		sc.sels = append(sc.sels, nil)
	}
	return &sc.sels[2*slot], &sc.sels[2*slot+1]
}

// colOutBatch returns the slot's output batch, creating it from the
// engine pool (with the dead columns pruned) on first use.
func (sc *slaveCtx) colOutBatch(slot int, eng *Engine, s storage.Schema, prune []int) *storage.ColBatch {
	for len(sc.colOuts) <= slot {
		sc.colOuts = append(sc.colOuts, nil)
	}
	if sc.colOuts[slot] == nil {
		sc.colOuts[slot] = eng.getColBatch(s, eng.batchSize(), prune)
	}
	return sc.colOuts[slot]
}

// checkpoint is called by drivers at safe pause points (page boundaries
// for page partitioning, key boundaries for range partitioning). It
// publishes progress, and if the master has signalled an adjustment
// round it reports and blocks until resumed. The return value is the
// slave's assignment to continue with; nil means the slave was retired
// (or its work is exhausted) and must exit.
func (sc *slaveCtx) checkpoint(progress report) assignment {
	rt := sc.rt
	rt.mu.Lock()
	s := sc.state
	s.progress = progress
	if !rt.round || s.reported {
		a := s.assign
		rt.mu.Unlock()
		return a
	}
	// Participate in the round: flush buffered CPU/output first so the
	// master's view of virtual time is consistent.
	s.reported = true
	reportCh := s.reportCh
	resumeCh := s.resumeCh
	rt.mu.Unlock()

	sc.flushCPU()
	rt.eng.Clock.Signal(reportCh)
	rt.eng.Clock.WaitSignal(resumeCh)
	// All participants are released together; park so they reorder
	// deterministically before touching the disks again.
	rt.eng.Clock.YieldOrdered(slaveKey(rt.task.ID, sc.state.slot))

	rt.mu.Lock()
	s.assign = s.pending
	s.pending = nil
	a := s.assign
	rt.mu.Unlock()
	return a
}

// pausePending reports whether the master has opened an adjustment
// round this slave has not answered yet; drivers stop refilling their
// readahead queues and head for the next safe point when it turns true.
func (sc *slaveCtx) pausePending() bool {
	rt := sc.rt
	rt.mu.Lock()
	p := rt.round && !sc.state.reported
	rt.mu.Unlock()
	return p
}

// chargeCPU accrues seconds of CPU work, sleeping when the debt passes
// the engine's charge quantum (batching keeps the event count low).
// picosPerSecond converts charge amounts to the integral debt unit.
const picosPerSecond = 1e12

func (sc *slaveCtx) chargeCPU(seconds float64) {
	sc.addCPUDebt(int64(seconds*picosPerSecond + 0.5))
}

// chargeCPUPer charges a per-tuple cost n times. The unit is quantized
// before multiplying, so the total is identical however the n tuples
// were split into batches.
func (sc *slaveCtx) chargeCPUPer(seconds float64, n int) {
	sc.addCPUDebt(int64(seconds*picosPerSecond+0.5) * int64(n))
}

func (sc *slaveCtx) addCPUDebt(ps int64) {
	sc.cpuDebtPs += ps
	if sc.cpuDebtPs >= sc.rt.eng.cpuQuantumPs {
		sc.flushCPU()
	}
}

func (sc *slaveCtx) flushCPU() {
	if ns := sc.cpuDebtPs / 1000; ns > 0 {
		sc.cpuDebtPs -= ns * 1000
		sc.rt.eng.Clock.Sleep(time.Duration(ns))
	}
}

// flushAll drains all buffers at slave exit, merging aggregation
// partials into the fragment's shared state and recycling the slave's
// columnar scratch through the engine pools.
func (sc *slaveCtx) flushAll() {
	eng := sc.rt.eng
	if sc.rt.fr.agg != nil {
		if sc.aggLocal != nil {
			sc.rt.fr.agg.mergeInto(sc.aggLocal)
			sc.aggLocal = nil
		}
		if sc.aggDense != nil {
			if !sc.rt.fr.agg.mergeDense(sc.aggBase, sc.aggDense) {
				eng.putDense(sc.aggDense)
			}
			sc.aggDense = nil
		}
	}
	if sc.hb != nil {
		sc.hb.Flush()
		sc.hb = nil
	}
	sc.flushCPU()
	// colPageBuf stays with the context (it re-Inits per schema); the
	// per-slot output batches are fragment-shaped and go back to their
	// shape pools.
	for i, b := range sc.colOuts {
		if b != nil {
			eng.putColBatch(b)
			sc.colOuts[i] = nil
		}
	}
}
