package exec

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"xprs/internal/plan"
	"xprs/internal/storage"
)

// Aggregation executes in the classic parallel two-phase shape: every
// slave backend folds its partition into a private accumulator table
// (no coordination on the hot path), and the partials merge into the
// fragment's shared state when each slave exits. Finalization emits one
// row per group into the output temp, ordered by group key so results
// are deterministic.

// aggState is the shared, merge-side aggregation state of a fragment.
type aggState struct {
	groupCol int // -1 for a single global group
	funcs    []plan.AggFunc

	// eng enables dense-scratch recycling; nil (tests) allocates plainly.
	eng *Engine

	mu     sync.Mutex
	groups map[int32][]int64
	// Dense fast path: group keys inside [denseBase, denseBase+W) fold
	// into a flat accumulator array instead of the map. The window is
	// adopted from the first slave that merges one in; keys outside it
	// fall back to the map, so any key distribution stays correct.
	denseScr  *denseScratch
	denseBase int32
}

func newAggState(a *plan.Agg, eng *Engine) *aggState {
	return &aggState{groupCol: a.GroupCol, funcs: a.Funcs, eng: eng, groups: make(map[int32][]int64)}
}

// aggDenseWindow is the dense accumulator window: keys spanning less
// than 64K cover the common group-by shapes while the scratch (W
// accumulators plus a seen bitmap) stays small enough to recycle
// per-slave.
const aggDenseWindow = 1 << 16

// denseScratch is one dense accumulator window: nf accumulator words
// per key slot plus a seen bitmap. Accumulator cells are initialized on
// first touch (the bitmap says which are live), so recycled scratch
// needs only its bitmap cleared.
type denseScratch struct {
	acc  []int64
	seen []uint64
}

// popSeen counts the live keys.
func (d *denseScratch) popSeen() int {
	n := 0
	for _, w := range d.seen {
		n += bits.OnesCount64(w)
	}
	return n
}

// initAccum returns the identity accumulator for the function list.
func initAccum(funcs []plan.AggFunc) []int64 {
	acc := make([]int64, len(funcs))
	resetAccum(acc, funcs)
	return acc
}

// resetAccum sets acc to the identity accumulator for the function
// list.
func resetAccum(acc []int64, funcs []plan.AggFunc) {
	for i, f := range funcs {
		switch f.Kind {
		case plan.Min:
			acc[i] = math.MaxInt64
		case plan.Max:
			acc[i] = math.MinInt64
		default:
			acc[i] = 0
		}
	}
}

// mergeAcc folds src into dst under the function list.
func mergeAcc(dst, src []int64, funcs []plan.AggFunc) {
	for i, f := range funcs {
		switch f.Kind {
		case plan.CountAll, plan.Sum:
			dst[i] += src[i]
		case plan.Min:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		case plan.Max:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// mergeOneLocked folds one group into the shared state, routing keys
// inside the adopted dense window into the flat array so no key ever
// lives in both stores. owned says acc may be stored directly; callers
// whose acc aliases recycled scratch pass false to force a copy.
func (st *aggState) mergeOneLocked(k int32, acc []int64, owned bool) {
	if d := st.denseScr; d != nil {
		if idx := int(k) - int(st.denseBase); 0 <= idx && idx < aggDenseWindow {
			nf := len(st.funcs)
			cell := d.acc[idx*nf : idx*nf+nf]
			w, bit := idx>>6, uint64(1)<<(idx&63)
			if d.seen[w]&bit == 0 {
				d.seen[w] |= bit
				copy(cell, acc)
				return
			}
			mergeAcc(cell, acc, st.funcs)
			return
		}
	}
	dst, ok := st.groups[k]
	if !ok {
		if !owned {
			acc = append([]int64(nil), acc...)
		}
		st.groups[k] = acc
		return
	}
	mergeAcc(dst, acc, st.funcs)
}

// mergeInto folds a partial accumulator table into the shared state.
func (st *aggState) mergeInto(partial map[int32][]int64) {
	if len(partial) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for k, acc := range partial {
		st.mergeOneLocked(k, acc, true)
	}
}

// mergeDense folds one slave's dense window into the shared state and
// reports whether the scratch was adopted (the caller must not recycle
// it then). The first window in is adopted wholesale — zero merge cost
// for the common one-window case — and any map keys that already landed
// inside it are pulled in to preserve the one-store-per-key invariant.
// Later windows translate per key, spilling outliers to the map.
func (st *aggState) mergeDense(base int32, d *denseScratch) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	nf := len(st.funcs)
	if st.denseScr == nil {
		st.denseScr, st.denseBase = d, base
		for k, acc := range st.groups {
			idx := int(k) - int(base)
			if idx < 0 || idx >= aggDenseWindow {
				continue
			}
			cell := d.acc[idx*nf : idx*nf+nf]
			w, bit := idx>>6, uint64(1)<<(idx&63)
			if d.seen[w]&bit == 0 {
				d.seen[w] |= bit
				copy(cell, acc)
			} else {
				mergeAcc(cell, acc, st.funcs)
			}
			delete(st.groups, k)
		}
		return true
	}
	for wi, w := range d.seen {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			idx := wi<<6 + b
			st.mergeOneLocked(base+int32(idx), d.acc[idx*nf:idx*nf+nf], false)
		}
	}
	return false
}

// forEachGroupLocked visits every group in ascending key order, merging
// the dense window walk with the sorted map keys. Dense slots ascend in
// key order by construction, and no key lives in both stores.
func (st *aggState) forEachGroupLocked(keys []int32, fn func(k int32, acc []int64)) {
	d := st.denseScr
	if d == nil {
		for _, k := range keys {
			fn(k, st.groups[k])
		}
		return
	}
	nf := len(st.funcs)
	ki := 0
	for wi, w := range d.seen {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			idx := wi<<6 + b
			dk := st.denseBase + int32(idx)
			for ki < len(keys) && keys[ki] < dk {
				fn(keys[ki], st.groups[keys[ki]])
				ki++
			}
			fn(dk, d.acc[idx*nf:idx*nf+nf])
		}
	}
	for ; ki < len(keys); ki++ {
		fn(keys[ki], st.groups[keys[ki]])
	}
}

// releaseDenseLocked recycles the shared dense scratch after emit.
func (st *aggState) releaseDenseLocked() {
	if st.denseScr != nil && st.eng != nil {
		st.eng.putDense(st.denseScr)
	}
	st.denseScr = nil
}

// emit writes the final per-group rows, ordered by group key. Agg
// outputs are all-int4, so rows append straight into the output temp's
// integer vectors — no tuple or Value is ever materialized; a row
// fallback covers any schema that is not (it builds all rows over one
// backing array).
func (st *aggState) emit(out *Temp) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	keys := make([]int32, 0, len(st.groups))
	for k := range st.groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	n := len(keys)
	if st.denseScr != nil {
		n += st.denseScr.popSeen()
	}
	if n == 0 {
		st.releaseDenseLocked()
		return 0
	}
	allInt := true
	for _, c := range out.Schema.Cols {
		if c.Typ != storage.Int4 {
			allInt = false
			break
		}
	}
	if allInt {
		out.appendDirect(func(cb *storage.ColBatch) int {
			gv := 0
			if st.groupCol >= 0 {
				gv = 1
				cb.Vecs[0].Ints = slices.Grow(cb.Vecs[0].Ints, n)
			}
			for i := range st.funcs {
				cb.Vecs[gv+i].Ints = slices.Grow(cb.Vecs[gv+i].Ints, n)
			}
			st.forEachGroupLocked(keys, func(k int32, acc []int64) {
				if gv == 1 {
					cb.Vecs[0].Ints = append(cb.Vecs[0].Ints, k)
				}
				for i, v := range acc {
					cb.Vecs[gv+i].Ints = append(cb.Vecs[gv+i].Ints, int32(v))
				}
			})
			return n
		})
		st.releaseDenseLocked()
		return n
	}
	ncols := len(st.funcs)
	if st.groupCol >= 0 {
		ncols++
	}
	vals := make([]storage.Value, 0, n*ncols)
	rows := make([]storage.Tuple, 0, n)
	st.forEachGroupLocked(keys, func(k int32, acc []int64) {
		start := len(vals)
		if st.groupCol >= 0 {
			vals = append(vals, storage.IntVal(k))
		}
		for _, v := range acc {
			vals = append(vals, storage.IntVal(int32(v)))
		}
		rows = append(rows, storage.Tuple{Vals: vals[start:len(vals):len(vals)]})
	})
	out.Append(rows)
	st.releaseDenseLocked()
	return n
}

// accumulateBatchCols folds the live rows of a columnar batch into the
// slave's private accumulators, each with multiplicity 1.
func (sc *slaveCtx) accumulateBatchCols(st *aggState, b *storage.ColBatch) {
	if b.Live() == 0 {
		return
	}
	f := sc.aggFolder(st, b)
	if b.Sel == nil {
		for row := 0; row < b.N; row++ {
			f.fold(sc, row, 1)
		}
		return
	}
	for _, row := range b.Sel {
		f.fold(sc, int(row), 1)
	}
}

// aggFolder folds rows of one batch into a slave's private accumulators.
// The batch path folds every live row once; the fused probe folds a
// probe row once per match count (see compileProbeFold). Keys inside a
// 64K window anchored at the first key seen fold into a flat array —
// one bounds check and no hashing per row; outliers, global groups and
// degenerate key vectors fall back to the accumulator map + slab, so
// any key distribution stays correct. Accumulator cells initialize on
// first touch via the seen bitmap, which is what lets recycled scratch
// skip a 512KB zeroing pass per slave.
type aggFolder struct {
	funcs []plan.AggFunc
	// keys is the group-key vector, nil when every row folds under key
	// 0 (a global aggregate, or a missing or non-int4 key column).
	keys []int32
	// src holds each function's argument vector, nil for CountAll and
	// for missing or non-int4 columns (read as 0).
	src [][]int32
	// dense says keys may use the dense window.
	dense bool
}

// aggFolder binds the aggregate's columns to batch b's vectors.
func (sc *slaveCtx) aggFolder(st *aggState, b *storage.ColBatch) aggFolder {
	funcs := st.funcs
	nf := len(funcs)
	f := aggFolder{funcs: funcs}
	if gc := st.groupCol; gc >= 0 && gc < len(b.Vecs) && b.Vecs[gc].Typ == storage.Int4 {
		f.keys = b.Vecs[gc].Ints
	}
	f.dense = f.keys != nil && nf > 0
	if cap(sc.aggSrc) < nf {
		sc.aggSrc = make([][]int32, nf)
	}
	f.src = sc.aggSrc[:nf]
	for i, fn := range funcs {
		f.src[i] = nil
		if fn.Kind != plan.CountAll && fn.Col >= 0 && fn.Col < len(b.Vecs) && b.Vecs[fn.Col].Typ == storage.Int4 {
			f.src[i] = b.Vecs[fn.Col].Ints
		}
	}
	return f
}

// fold folds physical row `row` into its group's accumulator as if the
// row occurred mult times: counts and sums scale, min and max apply
// once.
func (f *aggFolder) fold(sc *slaveCtx, row int, mult int64) {
	k := int32(0)
	if f.keys != nil {
		k = f.keys[row]
	}
	acc := sc.aggCell(f.funcs, k, f.dense)
	for i, fn := range f.funcs {
		var v int64
		if s := f.src[i]; s != nil {
			v = int64(s[row])
		}
		switch fn.Kind {
		case plan.CountAll:
			acc[i] += mult
		case plan.Sum:
			acc[i] += mult * v
		case plan.Min:
			if v < acc[i] {
				acc[i] = v
			}
		case plan.Max:
			if v > acc[i] {
				acc[i] = v
			}
		}
	}
}

// aggCell returns the slave's accumulator for group k: a dense-window
// cell when dense and k falls inside the window (anchored at the first
// dense key this slave sees), the overflow map's entry otherwise.
func (sc *slaveCtx) aggCell(funcs []plan.AggFunc, k int32, dense bool) []int64 {
	if dense {
		nf := len(funcs)
		if sc.aggDense == nil {
			sc.aggBase = k &^ int32(aggDenseWindow-1)
			sc.aggDense = sc.rt.fr.eng.getDense(nf)
		}
		if idx := int(k) - int(sc.aggBase); 0 <= idx && idx < aggDenseWindow {
			d := sc.aggDense
			acc := d.acc[idx*nf : idx*nf+nf]
			w, bit := idx>>6, uint64(1)<<(idx&63)
			if d.seen[w]&bit == 0 {
				d.seen[w] |= bit
				resetAccum(acc, funcs)
			}
			return acc
		}
	}
	if sc.aggLocal == nil {
		sc.aggLocal = make(map[int32][]int64)
	}
	acc, ok := sc.aggLocal[k]
	if !ok {
		acc = sc.newAccum(funcs)
		sc.aggLocal[k] = acc
	}
	return acc
}

// getDense hands out a dense scratch window for nf functions; the seen
// bitmap is clear, the accumulators deliberately dirty (first touch
// initializes them).
func (e *Engine) getDense(nf int) *denseScratch {
	need := aggDenseWindow * nf
	if v := e.densePool.Get(); v != nil {
		d := v.(*denseScratch)
		if cap(d.acc) >= need {
			d.acc = d.acc[:need]
			return d
		}
	}
	if need == 0 {
		need = aggDenseWindow
	}
	return &denseScratch{acc: make([]int64, need), seen: make([]uint64, aggDenseWindow/64)}
}

// putDense recycles a dense scratch window, clearing its bitmap so the
// next user starts empty.
func (e *Engine) putDense(d *denseScratch) {
	if d == nil {
		return
	}
	clear(d.seen)
	e.densePool.Put(d)
}

// aggSlabChunk is the accumulator-slab growth unit (int64 words).
const aggSlabChunk = 1024

// newAccum carves an identity accumulator out of the slave's slab.
func (sc *slaveCtx) newAccum(funcs []plan.AggFunc) []int64 {
	n := len(funcs)
	if n == 0 {
		return []int64{}
	}
	if len(sc.aggSlab)+n > cap(sc.aggSlab) {
		c := aggSlabChunk
		if c < n {
			c = n
		}
		sc.aggSlab = make([]int64, 0, c)
	}
	start := len(sc.aggSlab)
	sc.aggSlab = sc.aggSlab[:start+n]
	acc := sc.aggSlab[start : start+n : start+n]
	resetAccum(acc, funcs)
	return acc
}
