package exec

import (
	"fmt"

	"xprs/internal/expr"
	"xprs/internal/plan"
	"xprs/internal/storage"
)

// The pipeline compiler. Every fragment runs on one batch layout, the
// columnar batch: the page driver decodes pages straight into column
// vectors, the range driver gathers each key group's index hits out of
// the page cache, the merge driver walks both sorted temps' vectors and
// emits joined rows, filters produce selection vectors instead of
// copying survivors, hash joins and nestloops emit by appending the
// column values their consumer reads (the Need stamps plan.Decompose
// computes), a hash probe under a root aggregate that reads only probe
// columns folds its match counts straight into the aggregate
// (compileProbeFold), and aggregation folds through a dense
// accumulator window.
//
// Blocking consumers. A nestloop rescans its inner input for every
// outer row, and rescanning a base relation waits on disk. Invariant 2
// (pipeline.go) requires every pending output batch to be flushed before
// such a wait, so each compiled stage carries whether feeding it can
// block: emitting operators ahead of a blocking consumer (hash probes,
// the merge driver, nestloops) flush after every emitted row, and a
// nestloop flushes its own pending output before each inner IO. The
// clock value at every IO point therefore stays independent of the
// batch size.

// colProc consumes one columnar batch inside a slave. Batches are
// read-only apart from Sel, which filter stages swap and restore; rows
// must be copied out, never retained (driver batches are per-slave
// scratch or shared page-cache views).
type colProc func(sc *slaveCtx, b *storage.ColBatch) error

// colConsumer is a compiled pipeline stage plus whether feeding it can
// block on IO (a nestloop rescan downstream).
type colConsumer struct {
	proc     colProc
	blocking bool
}

// compileColSink builds the terminal consumer: batches append into the
// output temp under one lock round-trip, or partition into the slave's
// private hash builder.
func (fr *fragRun) compileColSink() colConsumer {
	if fr.outHash != nil {
		insertCPU := fr.eng.Params.HashInsertCPU
		return colConsumer{proc: func(sc *slaveCtx, b *storage.ColBatch) error {
			live := b.Live()
			if live == 0 {
				return nil
			}
			sc.chargeCPUPer(insertCPU, live)
			fr.statTuplesOut.Add(int64(live))
			if sc.hb == nil {
				sc.hb = fr.outHash.builderIn(&sc.hbScratch)
			}
			return sc.hb.InsertBatch(b)
		}}
	}
	return colConsumer{proc: func(sc *slaveCtx, b *storage.ColBatch) error {
		live := b.Live()
		if live == 0 {
			return nil
		}
		fr.statTuplesOut.Add(int64(live))
		fr.outTemp.AppendCols(b)
		return nil
	}}
}

// pruneFor lists the columns of s that a consumer with the given need
// marks never reads (need nil keeps every column).
func pruneFor(s storage.Schema, need []bool) []int {
	if need == nil {
		return nil
	}
	var prune []int
	for c := range s.Cols {
		if !need[c] {
			prune = append(prune, c)
		}
	}
	return prune
}

// forLive calls fn for every live physical row of b, stopping at the
// first error.
func forLive(b *storage.ColBatch, fn func(row int) error) error {
	if b.Sel == nil {
		for row := 0; row < b.N; row++ {
			if err := fn(row); err != nil {
				return err
			}
		}
		return nil
	}
	for _, row := range b.Sel {
		if err := fn(int(row)); err != nil {
			return err
		}
	}
	return nil
}

// compileCol builds the chain for the subtree rooted at n, feeding cons.
// Emitting operators copy only the output columns their consumer reads
// (the Need stamped by plan.Decompose), so dead text columns are never
// copied.
func (fr *fragRun) compileCol(n plan.Node, cons colConsumer, atRoot bool) (colConsumer, error) {
	switch x := n.(type) {
	case *plan.SeqScan:
		return fr.compileColFilter(x.Filter, cons), nil

	case *plan.IndexScan:
		return fr.compileColFilter(x.Filter, cons), nil

	case *plan.FragScan:
		return cons, nil

	case *plan.MergeJoin:
		// Merge joins are fragment drivers: the merge driver emits their
		// joined batches straight into the chain above them.
		return cons, nil

	case *plan.Sort:
		if !atRoot {
			return colConsumer{}, fmt.Errorf("exec: Sort below fragment root")
		}
		// Sorting happens in finalize; the batch path only collects.
		return fr.compileCol(x.Child, cons, false)

	case *plan.Agg:
		if !atRoot {
			return colConsumer{}, fmt.Errorf("exec: Agg below fragment root")
		}
		if pa, ok := plan.ProbeAgg(x); ok {
			fr.aggNode = pa
			fr.agg = newAggState(pa, fr.eng)
			return fr.compileProbeFold(x.Child.(*plan.HashJoin))
		}
		fr.aggNode = x
		fr.agg = newAggState(x, fr.eng)
		foldCPU := fr.eng.Params.HashInsertCPU
		acc := colConsumer{proc: func(sc *slaveCtx, b *storage.ColBatch) error {
			live := b.Live()
			if live == 0 {
				return nil
			}
			sc.chargeCPUPer(foldCPU, live)
			sc.accumulateBatchCols(fr.agg, b)
			return nil
		}}
		return fr.compileCol(x.Child, acc, false)

	case *plan.NestLoop:
		return fr.compileNestLoop(x, cons)

	case *plan.HashJoin:
		buildFrag, err := buildFragOf(x)
		if err != nil {
			return colConsumer{}, err
		}
		probeCPU := fr.eng.Params.HashProbeCPU
		emitCPU := fr.eng.Params.EmitCPU
		slot := fr.newColOut()
		outSchema := x.OutSchema()
		prune := pruneFor(outSchema, x.Need)
		limit := fr.emitLimit(cons)
		proc := func(sc *slaveCtx, b *storage.ColBatch) error {
			live := b.Live()
			if live == 0 {
				return nil
			}
			ht, keys, err := fr.probeInput(buildFrag, x.LCol, b)
			if err != nil {
				return err
			}
			sc.chargeCPUPer(probeCPU, live)
			out := sc.colOutBatch(slot, fr.eng, outSchema, prune)
			err = forLive(b, func(row int) error {
				store, start, cnt := ht.ProbeKey(keys[row])
				for m := int32(0); m < cnt; m++ {
					sc.chargeCPU(emitCPU)
					out.AppendJoined(b, row, store, int(start+m))
					if out.N >= limit {
						if err := flushOut(sc, cons, out); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			return flushOut(sc, cons, out)
		}
		return fr.compileCol(x.Left, colConsumer{proc: proc, blocking: cons.blocking}, false)

	default:
		return colConsumer{}, fmt.Errorf("exec: cannot compile node %T", n)
	}
}

// buildFragOf returns the fragment that builds a decomposed HashJoin's
// table.
func buildFragOf(x *plan.HashJoin) (*plan.Fragment, error) {
	fs, ok := x.Right.(*plan.FragScan)
	if !ok {
		return nil, fmt.Errorf("exec: HashJoin build side is %T, want FragScan (decompose first)", x.Right)
	}
	return fs.Frag, nil
}

// probeInput resolves a probe batch's hash table and int4 key vector.
func (fr *fragRun) probeInput(buildFrag *plan.Fragment, lcol int, b *storage.ColBatch) (*ColHashTable, []int32, error) {
	ht := fr.hashes[buildFrag]
	if ht == nil {
		return nil, nil, fmt.Errorf("exec: hash table for fragment f%d not built", buildFrag.ID)
	}
	if lcol < 0 || lcol >= len(b.Vecs) {
		return nil, nil, fmt.Errorf("exec: probe column %d out of range (tuple has %d)", lcol, len(b.Vecs))
	}
	if b.Vecs[lcol].Typ != storage.Int4 || b.Vecs[lcol].Ints == nil {
		return nil, nil, &KeyTypeError{Side: "probe", Col: lcol}
	}
	return ht, b.Vecs[lcol].Ints, nil
}

// compileProbeFold fuses a hash probe into the root aggregate directly
// above it (plan.ProbeAgg: the aggregate reads only probe columns once
// the build key is read as the probe key). A probe row with cnt matches
// folds once with multiplicity cnt, and no joined row is ever built.
//
// The clock charges replay the unfused pipeline exactly: the probe
// charge for the whole batch up front, one quantized emit charge per
// match, and the aggregate's per-row fold charge for n matches each
// time n matches fill an output batch (emitLimit) and once for the
// remainder at the end of the batch. The debt therefore crosses the
// charge quantum at the same points, and virtual time is identical.
func (fr *fragRun) compileProbeFold(x *plan.HashJoin) (colConsumer, error) {
	buildFrag, err := buildFragOf(x)
	if err != nil {
		return colConsumer{}, err
	}
	probeCPU := fr.eng.Params.HashProbeCPU
	emitCPU := fr.eng.Params.EmitCPU
	foldCPU := fr.eng.Params.HashInsertCPU
	// The aggregate never blocks, so the unfused probe would flush at
	// the engine batch size.
	limit := fr.eng.batchSize()
	proc := func(sc *slaveCtx, b *storage.ColBatch) error {
		live := b.Live()
		if live == 0 {
			return nil
		}
		ht, keys, err := fr.probeInput(buildFrag, x.LCol, b)
		if err != nil {
			return err
		}
		sc.chargeCPUPer(probeCPU, live)
		f := sc.aggFolder(fr.agg, b)
		pending := 0
		foldRow := func(row int) {
			_, _, cnt := ht.ProbeKey(keys[row])
			if cnt == 0 {
				return
			}
			f.fold(sc, row, int64(cnt))
			for m := int32(0); m < cnt; m++ {
				sc.chargeCPU(emitCPU)
				if pending++; pending == limit {
					sc.chargeCPUPer(foldCPU, pending)
					pending = 0
				}
			}
		}
		if b.Sel == nil {
			for row := 0; row < b.N; row++ {
				foldRow(row)
			}
		} else {
			for _, row := range b.Sel {
				foldRow(int(row))
			}
		}
		if pending > 0 {
			sc.chargeCPUPer(foldCPU, pending)
		}
		return nil
	}
	return fr.compileCol(x.Left, colConsumer{proc: proc}, false)
}

// flushOut hands an emitting operator's pending output to its consumer
// and empties it.
func flushOut(sc *slaveCtx, cons colConsumer, out *storage.ColBatch) error {
	if out.N == 0 {
		return nil
	}
	err := cons.proc(sc, out)
	out.Reset()
	return err
}

// compileColFilter wraps cons with a leaf qualification compiled to a
// selection-vector chain (see selectRows). The batch's own selection
// vector is swapped in for the downstream call and restored after —
// driver batches are per-slave views, so the mutation is invisible
// outside the chain. The predicate itself is uncharged (the per-tuple
// scan CPU of §3 covers qualification), so filtering defers no clock
// work.
func (fr *fragRun) compileColFilter(filter expr.Expr, cons colConsumer) colConsumer {
	chain := expr.CompileColPredChain(filter)
	if len(chain) == 0 {
		return cons
	}
	slot := fr.newSel()
	return colConsumer{blocking: cons.blocking, proc: func(sc *slaveCtx, b *storage.ColBatch) error {
		fr.eng.mSelIn.Add(int64(b.Live()))
		sel, err := sc.selectRows(slot, chain, b, b.Sel)
		if err != nil || len(sel) == 0 {
			return err
		}
		fr.eng.mSelOut.Add(int64(len(sel)))
		save := b.Sel
		b.Sel = sel
		err = cons.proc(sc, b)
		b.Sel = save
		return err
	}}
}

// selectRows narrows the rows of b selected by sel (nil = all) through
// the chain's AND factors in sequence, ping-ponging between the slot's
// two selection buffers, and returns the survivors. The result is never
// nil: an empty slice means no row survived.
func (sc *slaveCtx) selectRows(slot int, chain []expr.ColPred, b *storage.ColBatch, sel []int32) ([]int32, error) {
	a, bbuf := sc.selScratch(slot)
	for i, p := range chain {
		dst := a
		if i%2 == 1 {
			dst = bbuf
		}
		res, err := p(b, sel, (*dst)[:0])
		if res == nil {
			res = []int32{}
		}
		*dst = res
		if err != nil || len(res) == 0 {
			return res, err
		}
		sel = res
	}
	return sel, nil
}

// compileNestLoop builds a nestloop (§2.1: the inner pipelines within
// the fragment and is re-read for every outer row). Each inner batch is
// joined with the outer row into a candidate batch, the join predicate
// selects from it, and the survivors are emitted — the same emissions,
// in the same order, that a row-at-a-time loop would make.
func (fr *fragRun) compileNestLoop(x *plan.NestLoop, cons colConsumer) (colConsumer, error) {
	rescan, err := fr.compileColRescan(x.Inner)
	if err != nil {
		return colConsumer{}, err
	}
	chain := expr.CompileColPredChain(x.Pred)
	emitCPU := fr.eng.Params.EmitCPU
	rescanCPU := fr.eng.Params.RescanSetupCPU
	outSchema := x.OutSchema()
	prune := pruneFor(outSchema, x.Need)
	outSlot, candSlot, selSlot := fr.newColOut(), fr.newColOut(), fr.newSel()
	limit := fr.emitLimit(cons)
	outer := colConsumer{blocking: true, proc: func(sc *slaveCtx, b *storage.ColBatch) error {
		out := sc.colOutBatch(outSlot, fr.eng, outSchema, prune)
		cand := sc.colOutBatch(candSlot, fr.eng, outSchema, nil)
		flush := func() error { return flushOut(sc, cons, out) }
		emitRow := func(row int) error {
			sc.chargeCPU(emitCPU)
			out.AppendRow(cand, row)
			if out.N >= limit {
				return flush()
			}
			return nil
		}
		err := forLive(b, func(orow int) error {
			sc.chargeCPU(rescanCPU)
			return rescan(sc, flush, func(ib *storage.ColBatch, isel []int32) error {
				cand.Reset()
				if isel == nil {
					for irow := 0; irow < ib.N; irow++ {
						cand.AppendJoined(b, orow, ib, irow)
					}
				} else {
					for _, irow := range isel {
						cand.AppendJoined(b, orow, ib, int(irow))
					}
				}
				if len(chain) > 0 {
					sel, err := sc.selectRows(selSlot, chain, cand, nil)
					if err != nil {
						return err
					}
					cand.Sel = sel
				}
				return forLive(cand, emitRow)
			})
		})
		if ferr := flush(); err == nil {
			err = ferr
		}
		return err
	}}
	return fr.compileCol(x.Outer, outer, false)
}

// innerEmit receives one batch of a nestloop inner rescan together with
// the rows surviving the inner filter (sel nil = all rows).
type innerEmit func(ib *storage.ColBatch, sel []int32) error

// colRescanFn executes one full scan of a nestloop inner input. beforeIO
// runs ahead of every blocking disk wait so the caller can flush its
// pending output (delivering downstream clock charges) before the
// slave's CPU debt is slept off.
type colRescanFn func(sc *slaveCtx, beforeIO func() error, emit innerEmit) error

// innerFilter compiles a nestloop inner's qualification: the returned
// function calls emit with the rows of ib that pass, and not at all when
// none does.
func (fr *fragRun) innerFilter(filter expr.Expr) func(sc *slaveCtx, ib *storage.ColBatch, emit innerEmit) error {
	chain := expr.CompileColPredChain(filter)
	if len(chain) == 0 {
		return func(_ *slaveCtx, ib *storage.ColBatch, emit innerEmit) error { return emit(ib, nil) }
	}
	slot := fr.newSel()
	return func(sc *slaveCtx, ib *storage.ColBatch, emit innerEmit) error {
		sel, err := sc.selectRows(slot, chain, ib, nil)
		if err != nil || len(sel) == 0 {
			return err
		}
		return emit(ib, sel)
	}
}

// compileColRescan builds the inner-rescan executor of a nestloop,
// hoisting per-scan constants out of the per-outer-row path.
func (fr *fragRun) compileColRescan(n plan.Node) (colRescanFn, error) {
	switch x := n.(type) {
	case *plan.SeqScan:
		rel := x.Rel
		filter := fr.innerFilter(x.Filter)
		perTuple := fr.eng.Params.TupleCPU(rel.Stats().AvgTupleSize)
		slot := fr.newColOut()
		return func(sc *slaveCtx, beforeIO func() error, emit innerEmit) error {
			// Physical pages come from the shared page cache; only
			// generator-backed relations decode into slave scratch.
			var scratch *storage.ColBatch
			if rel.Synthetic() {
				scratch = sc.colOutBatch(slot, fr.eng, rel.Schema, nil)
			}
			for p := int64(0); p < rel.NPages(); p++ {
				if err := beforeIO(); err != nil {
					return err
				}
				sc.flushCPU()
				if scratch != nil {
					scratch.Reset()
				}
				cb, err := fr.eng.Store.ReadPage(rel, p, scratch)
				if err != nil {
					return err
				}
				sc.chargeCPU(perTuple * float64(cb.N))
				if err := filter(sc, cb, emit); err != nil {
					return err
				}
			}
			return nil
		}, nil

	case *plan.IndexScan:
		rel := x.Rel
		tree := x.Index.Tree
		lo, hi := x.Lo, x.Hi
		filter := fr.innerFilter(x.Filter)
		perTuple := fr.eng.Params.TupleCPU(rel.Stats().AvgTupleSize) + fr.eng.Params.IndexProbeCPU
		slot := fr.newColOut()
		return func(sc *slaveCtx, beforeIO func() error, emit innerEmit) error {
			row := sc.colOutBatch(slot, fr.eng, rel.Schema, nil)
			var visitErr error
			tree.Visit(lo, hi, func(_ int32, tid storage.TID) bool {
				if visitErr = beforeIO(); visitErr != nil {
					return false
				}
				sc.flushCPU()
				row.Reset()
				if visitErr = fr.eng.Store.ReadTID(rel, tid, row); visitErr != nil {
					return false
				}
				sc.chargeCPU(perTuple)
				visitErr = filter(sc, row, emit)
				return visitErr == nil
			})
			return visitErr
		}, nil

	case *plan.FragScan:
		readCPU := fr.eng.Params.TempReadCPU
		return func(sc *slaveCtx, _ func() error, emit innerEmit) error {
			temp, err := fr.tempOf(x)
			if err != nil {
				return err
			}
			cols := temp.columns()
			sc.chargeCPU(readCPU * float64(temp.Len()))
			if cols == nil || cols.N == 0 {
				return nil
			}
			return emit(cols, nil)
		}, nil

	default:
		return nil, fmt.Errorf("exec: node %T is not rescannable", n)
	}
}
