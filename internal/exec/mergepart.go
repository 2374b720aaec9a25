package exec

import (
	"fmt"
	"slices"

	"xprs/internal/btree"
	"xprs/internal/plan"
)

// Merge-range partitioning: a MergeJoin fragment reads two temps sorted
// on the join keys; the key domain is split into balanced intervals and
// each slave merges one interval ("joins are parallelized using either
// page partitioning or range partitioning depending on the type of
// scans in their inner and outer plans" — a merge of two sorted streams
// is the range-partitioned case). Adjustment reuses the Figure 6 idea:
// paused slaves report their remaining key intervals, the master
// redistributes them using the left temp's key distribution.

// mergeAssign is one slave's remaining join-key intervals.
type mergeAssign struct {
	intervals []btree.Interval
}

type mergeDriver struct {
	fr          *fragRun
	join        *plan.MergeJoin
	left, right *Temp
	lcol, rcol  int
}

func newMergeDriver(fr *fragRun, leaf plan.Node) (*mergeDriver, error) {
	mj, ok := leaf.(*plan.MergeJoin)
	if !ok {
		return nil, fmt.Errorf("exec: merge driver over %T", leaf)
	}
	lf, ok := mj.Left.(*plan.FragScan)
	if !ok {
		return nil, fmt.Errorf("exec: merge join left input is %T, want sorted FragScan", mj.Left)
	}
	rf, ok := mj.Right.(*plan.FragScan)
	if !ok {
		return nil, fmt.Errorf("exec: merge join right input is %T, want sorted FragScan", mj.Right)
	}
	left, err := fr.tempOf(lf)
	if err != nil {
		return nil, err
	}
	right, err := fr.tempOf(rf)
	if err != nil {
		return nil, err
	}
	if left.SortedBy() != mj.LCol || right.SortedBy() != mj.RCol {
		return nil, fmt.Errorf("exec: merge join inputs not sorted on join columns")
	}
	return &mergeDriver{fr: fr, join: mj, left: left, right: right, lcol: mj.LCol, rcol: mj.RCol}, nil
}

// keyBounds returns the union of both inputs' key ranges.
func (d *mergeDriver) keyBounds() (int32, int32, bool) {
	llo, lhi, lok := d.left.Bounds(d.lcol)
	rlo, rhi, rok := d.right.Bounds(d.rcol)
	switch {
	case lok && rok:
		if rlo < llo {
			llo = rlo
		}
		if rhi > lhi {
			lhi = rhi
		}
		return llo, lhi, true
	case lok:
		return llo, lhi, true
	case rok:
		return rlo, rhi, true
	default:
		return 0, 0, false
	}
}

// splitByLeftQuantiles splits [lo, hi] into up to k intervals holding
// roughly equal numbers of left-input tuples.
func (d *mergeDriver) splitByLeftQuantiles(lo, hi int32, k int) []btree.Interval {
	if k <= 1 || lo > hi {
		return []btree.Interval{{Lo: lo, Hi: hi}}
	}
	keys := sortedKeys(d.left, d.lcol)
	start := d.left.lowerBound(d.lcol, lo)
	end := d.left.upperBound(d.lcol, hi)
	n := end - start
	if n == 0 {
		return []btree.Interval{{Lo: lo, Hi: hi}}
	}
	var out []btree.Interval
	curLo := lo
	for part := 1; part < k; part++ {
		idx := start + n*part/k
		if idx >= end {
			break
		}
		b := keys[idx]
		if b >= hi {
			break
		}
		if b < curLo {
			continue
		}
		out = append(out, btree.Interval{Lo: curLo, Hi: b})
		curLo = b + 1
	}
	out = append(out, btree.Interval{Lo: curLo, Hi: hi})
	return out
}

func (d *mergeDriver) initial(degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	lo, hi, ok := d.keyBounds()
	out := make([]assignment, degree)
	if !ok {
		return out, nil // both inputs empty
	}
	ivs := d.splitByLeftQuantiles(lo, hi, degree)
	for i := range ivs {
		if i < degree {
			out[i] = &mergeAssign{intervals: []btree.Interval{ivs[i]}}
		}
	}
	return out, nil
}

func (d *mergeDriver) repartition(remaining []report, degree int) ([]assignment, error) {
	if degree < 1 {
		return nil, fmt.Errorf("exec: degree %d", degree)
	}
	var all []btree.Interval
	for _, r := range remaining {
		ma, ok := r.(*mergeAssign)
		if !ok {
			return nil, fmt.Errorf("exec: merge driver got report %T", r)
		}
		for _, iv := range ma.intervals {
			if !iv.Empty() {
				all = append(all, iv)
			}
		}
	}
	slices.SortFunc(all, func(a, b btree.Interval) int {
		switch {
		case a.Lo < b.Lo:
			return -1
		case a.Lo > b.Lo:
			return 1
		}
		return 0
	})
	if d.fr.tracing() {
		d.fr.traceInstant("protocol", "interval-redeal", fmt.Sprintf(
			"%d remaining merge-key intervals split on left-input quantiles over %d slaves",
			len(all), degree))
	}
	// Split each remaining interval into degree quantile parts and deal
	// them round-robin; with the common case of one big remaining
	// interval this reproduces a balanced split.
	parts := make([][]btree.Interval, degree)
	for n, iv := range all {
		subs := d.splitByLeftQuantiles(iv.Lo, iv.Hi, degree)
		for i, sub := range subs {
			slot := (i + n) % degree
			parts[slot] = append(parts[slot], sub)
		}
	}
	out := make([]assignment, degree)
	for i, p := range parts {
		if len(p) > 0 {
			out[i] = &mergeAssign{intervals: p}
		}
	}
	return out, nil
}

// sortedKeys returns a sealed temp's int4 key vector on col (nil when
// the temp is empty).
func sortedKeys(t *Temp, col int) []int32 {
	if cols := t.columns(); cols != nil {
		return cols.Vecs[col].Ints
	}
	return nil
}

// run merges the assigned key intervals, emitting joined rows through
// the fragment pipeline, with checkpoints between key groups.
func (d *mergeDriver) run(sc *slaveCtx) error {
	a, ok := sc.state.assign.(*mergeAssign)
	if !ok {
		return fmt.Errorf("exec: merge slave got assignment %T", sc.state.assign)
	}
	p := d.fr.eng.Params
	lcols, rcols := d.left.columns(), d.right.columns()
	lk, rk := sortedKeys(d.left, d.lcol), sortedKeys(d.right, d.rcol)
	cons := d.fr.root
	limit := d.fr.emitLimit(cons)
	out := sc.colOutBatch(d.fr.drvSlot, d.fr.eng, d.join.OutSchema(), nil)
	for {
		if len(a.intervals) == 0 {
			return nil
		}
		iv := a.intervals[0]
		if iv.Empty() {
			a.intervals = a.intervals[1:]
			continue
		}
		li := d.left.lowerBound(d.lcol, iv.Lo)
		ri := d.right.lowerBound(d.rcol, iv.Lo)
		// Find the next key group with any row in the interval.
		var key int32
		switch {
		case li < len(lk) && lk[li] <= iv.Hi:
			key = lk[li]
			if ri < len(rk) && rk[ri] <= iv.Hi && rk[ri] < key {
				key = rk[ri]
			}
		case ri < len(rk) && rk[ri] <= iv.Hi:
			key = rk[ri]
		default:
			a.intervals = a.intervals[1:]
			continue
		}
		// Consume the full group `key` on both sides.
		llo, lhi := group(lk, li, key)
		rlo, rhi := group(rk, ri, key)
		sc.chargeCPU(p.MergeStepCPU * float64(lhi-llo+rhi-rlo))
		for l := llo; l < lhi; l++ {
			for r := rlo; r < rhi; r++ {
				sc.chargeCPU(p.EmitCPU)
				out.AppendJoined(lcols, l, rcols, r)
				if out.N >= limit {
					if err := flushOut(sc, cons, out); err != nil {
						return err
					}
				}
			}
		}
		// Deliver the group before the checkpoint so adjustments pause
		// with no buffered output in flight.
		if err := flushOut(sc, cons, out); err != nil {
			return err
		}
		if key >= iv.Hi {
			a.intervals = a.intervals[1:]
		} else {
			a.intervals[0].Lo = key + 1
		}
		next := sc.checkpoint(a)
		if next == nil {
			return nil
		}
		na, ok := next.(*mergeAssign)
		if !ok {
			return fmt.Errorf("exec: merge slave reassigned %T", next)
		}
		a = na
	}
}

// group returns the row range [lo, hi) of the run of keys equal to key
// starting at or after idx.
func group(keys []int32, idx int, key int32) (int, int) {
	for idx < len(keys) && keys[idx] < key {
		idx++
	}
	start := idx
	for idx < len(keys) && keys[idx] == key {
		idx++
	}
	return start, idx
}
