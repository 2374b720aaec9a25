package exec

import (
	"fmt"
	"sync/atomic"

	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// The pipeline executes batch-at-a-time: fragments compile to a chain
// of colProc closures over columnar batches (colpipe.go), so
// interpreter overhead (closure calls, lock round-trips, clock events)
// is paid per batch instead of per tuple.
//
// Two invariants keep virtual time independent of the batch size:
//
//  1. CPU is charged when the simulated work happens (cheap float adds
//     into the slave's debt counter), at page/group granularity for
//     scans and per emission for joins, never lazily per batch of some
//     other granularity.
//  2. Before every blocking disk wait, all pending work is flushed:
//     the slave's buffered output batches (so downstream charges land)
//     and then its CPU debt. The clock value at every IO point is
//     therefore a pure function of the work preceding that IO.
//
// Batches are read-only views apart from their selection vectors:
// filters narrow a batch through per-slave selection scratch, and
// emitting operators (joins, the range and merge drivers) append into
// per-slave output batches recycled through the engine's shape pools,
// so the hot path allocates only when a buffer first grows.

// fragRun is the runtime of one fragment: the compiled pipeline plus its
// input temps/hash tables and its output.
type fragRun struct {
	eng  *Engine
	frag *plan.Fragment

	// inputs, resolved from the engine's run context at launch
	temps  map[*plan.Fragment]*Temp
	hashes map[*plan.Fragment]*ColHashTable

	outTemp *Temp         // for RootOut / TempOut / SortedOut
	outHash *ColHashTable // for HashOut
	agg     *aggState     // non-nil when the fragment root is an Agg

	// Rebind ingredients, fixed at compile time: pooled runtimes recreate
	// the per-run outputs above from these without recompiling (see
	// rebind). aggNode remembers the root Agg so a fresh accumulator state
	// can be built per run.
	outSchema storage.Schema
	hashParts int
	aggNode   *plan.Agg

	// root is the compiled pipeline the drivers feed batches into.
	root colConsumer
	// drvSlot is the per-slave output-batch slot the range and merge
	// drivers gather their batches in.
	drvSlot int

	// nColOuts and nSels count the per-slave output-batch and
	// selection-scratch slots handed out at compile time.
	nColOuts int
	nSels    int

	// obsTid is the fragment's trace lane (0 when tracing is off).
	obsTid int
	// traced carries the owning query's head-based sampling decision:
	// false suppresses every span and protocol event this fragment (and
	// its slaves) would emit. Set by the scheduler at task start.
	traced bool
	// Always-on execution counters behind FragStat: pure atomic adds
	// that never touch the clock, so they cannot perturb determinism.
	statTuplesIn  atomic.Int64
	statTuplesOut atomic.Int64
	statBatches   atomic.Int64
}

// tracing reports whether this fragment's events should be emitted:
// tracing is on and the owning query was sampled.
func (fr *fragRun) tracing() bool {
	return fr.eng.Trace != nil && fr.traced
}

// traceInstant records a protocol event on the fragment's lane; callers
// guard with `if fr.tracing()` to skip detail formatting when tracing
// is off or the query is unsampled.
func (fr *fragRun) traceInstant(cat, name, detail string) {
	fr.eng.Trace.Instant(fr.eng.now(), obs.PidTasks, fr.obsTid, cat, name, detail)
}

// processColBatch feeds one driver batch through the pipeline.
func (fr *fragRun) processColBatch(sc *slaveCtx, b *storage.ColBatch) error {
	fr.statBatches.Add(1)
	fr.statTuplesIn.Add(int64(b.N))
	fr.eng.mBatches.Add(1)
	fr.eng.mTuples.Add(int64(b.N))
	return fr.root.proc(sc, b)
}

// newColOut reserves a per-slave output-batch slot for one emitting
// operator.
func (fr *fragRun) newColOut() int {
	s := fr.nColOuts
	fr.nColOuts++
	return s
}

// newSel reserves a per-slave selection-scratch slot (a ping-pong buffer
// pair) for one filter stage.
func (fr *fragRun) newSel() int {
	s := fr.nSels
	fr.nSels++
	return s
}

// emitLimit is the batch size an emitting operator flushes at: one for
// blocking consumers (see colConsumer), the engine batch size otherwise.
func (fr *fragRun) emitLimit(cons colConsumer) int {
	if cons.blocking {
		return 1
	}
	return fr.eng.batchSize()
}

// newFragRun wires a fragment to its materialized inputs and compiles
// the pipeline.
func newFragRun(eng *Engine, frag *plan.Fragment, temps map[*plan.Fragment]*Temp, hashes map[*plan.Fragment]*ColHashTable) (*fragRun, error) {
	fr := &fragRun{eng: eng, frag: frag, temps: temps, hashes: hashes}
	fr.outSchema = frag.Root.OutSchema()
	switch frag.Out {
	case plan.HashOut:
		parts := eng.HashPartitions
		if parts <= 0 {
			parts = frag.HashParts
		}
		if parts <= 0 {
			parts = DefaultHashPartitions
		}
		fr.hashParts = parts
		fr.outHash = NewColHashTable(eng, fr.outSchema, frag.HashCol, parts, eng.Env.NProcs)
	default:
		fr.outTemp = NewTemp(fr.outSchema)
		fr.outTemp.sortProcs = eng.Env.NProcs
	}
	fr.drvSlot = fr.newColOut()
	root, err := fr.compileCol(frag.Root, fr.compileColSink(), true, nil)
	if err != nil {
		return nil, err
	}
	fr.root = root
	return fr, nil
}

// rebind readies a pooled runtime for another execution of its
// fragment: fresh outputs (the previous run's escaped into its Report
// or were released with its query), this run's input maps, and zeroed
// counters. The compiled closures need no attention — they read all of
// this through the fragRun pointer at call time.
func (fr *fragRun) rebind(temps map[*plan.Fragment]*Temp, hashes map[*plan.Fragment]*ColHashTable) {
	fr.temps, fr.hashes = temps, hashes
	switch fr.frag.Out {
	case plan.HashOut:
		fr.outHash = NewColHashTable(fr.eng, fr.outSchema, fr.frag.HashCol, fr.hashParts, fr.eng.Env.NProcs)
	default:
		fr.outTemp = NewTemp(fr.outSchema)
		fr.outTemp.sortProcs = fr.eng.Env.NProcs
	}
	if fr.aggNode != nil {
		fr.agg = newAggState(fr.aggNode, fr.eng)
	}
	fr.statTuplesIn.Store(0)
	fr.statTuplesOut.Store(0)
	fr.statBatches.Store(0)
}

// finalize seals the fragment output after all slaves finished, charging
// any residual CPU (the master's k-way merge of a sorted temp) to the
// calling goroutine's clock.
func (fr *fragRun) finalize() {
	if fr.agg != nil {
		groups := fr.agg.emit(fr.outTemp)
		fr.statTuplesOut.Add(int64(groups))
		fr.eng.chargeMasterCPU(float64(groups) * fr.eng.Params.EmitCPU)
	}
	if fr.frag.Out == plan.SortedOut {
		cmps := fr.outTemp.Finalize(fr.frag.SortCol)
		fr.eng.chargeMasterCPU(float64(cmps) * fr.eng.Params.SortCmpCPU)
	}
	if fr.outHash != nil {
		// Seal before publication so every probe runs lock-free against
		// immutable partitions. The insert CPU was already charged per
		// batch; sealing is wall-clock-only work and leaves the virtual
		// clock untouched.
		fr.outHash.Seal()
	}
}

// driverInfo resolves the fragment's driving leaf for the partitioners.
func (fr *fragRun) driverInfo() (plan.Node, plan.DriverKind) {
	return fr.frag.Driver()
}

// tempOf returns the materialized temp behind a FragScan.
func (fr *fragRun) tempOf(fs *plan.FragScan) (*Temp, error) {
	t := fr.temps[fs.Frag]
	if t == nil {
		return nil, fmt.Errorf("exec: temp for fragment f%d not materialized", fs.Frag.ID)
	}
	return t, nil
}
