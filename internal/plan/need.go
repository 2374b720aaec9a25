package plan

import "slices"

// Column need analysis. A fragment's pipeline copies column values only
// where an operator emits rows (hash probes, nestloops) and where a
// hash table stores its build rows. Decompose marks, once per graph,
// which of those columns anything downstream reads, so the executor
// never copies the rest (dead text columns above all).
//
// Need flows top-down from a root Agg's group and argument columns
// through HashJoins: a probe's consumer needs some of its left columns
// (plus the probe key) and some of its build columns, and the build
// columns it needs are stamped on the HashOut fragment that builds the
// table. A HashOut fragment's own tree is walked with that stamp (plus
// its hash key, which the builder reads), so need keeps flowing through
// a bushy build side. Everything else — temps, sorted temps, the root
// result, nestloop outers, merge-join inputs — is read whole.
//
// A need is a per-column mark over an operator's output schema; nil
// means every column is read.

// ProbeAgg reports whether the root aggregate a can fold straight out
// of the hash probe beneath it, and returns the aggregate it then
// computes over the probe (left) input: the same functions, with every
// group and argument column remapped into the probe schema. In an
// equi-join the build key equals the probe key, so the build key column
// remaps to the probe key column; any other build column makes ok
// false.
func ProbeAgg(a *Agg) (*Agg, bool) {
	hj, ok := a.Child.(*HashJoin)
	if !ok {
		return nil, false
	}
	nl := hj.Left.OutSchema().Len()
	probeCol := func(c int) (int, bool) {
		switch {
		case c < nl:
			return c, true
		case c == nl+hj.RCol:
			return hj.LCol, true
		default:
			return 0, false
		}
	}
	pa := &Agg{Child: hj.Left, GroupCol: a.GroupCol, Funcs: slices.Clone(a.Funcs)}
	if a.GroupCol >= 0 {
		if pa.GroupCol, ok = probeCol(a.GroupCol); !ok {
			return nil, false
		}
	}
	for i, f := range pa.Funcs {
		if f.Kind == CountAll {
			continue
		}
		if pa.Funcs[i].Col, ok = probeCol(f.Col); !ok {
			return nil, false
		}
	}
	return pa, true
}

// stampNeeds runs the need analysis over a decomposed graph. Fragments
// are listed inputs first, so walking them in reverse visits every
// probe before the fragment that builds its table.
func (g *Graph) stampNeeds() {
	for i := len(g.Fragments) - 1; i >= 0; i-- {
		f := g.Fragments[i]
		var need []bool
		if f.Out == HashOut && f.Need != nil {
			need = slices.Clone(f.Need)
			need[f.HashCol] = true
		}
		stampNeed(f.Root, need)
	}
}

// stampNeed records on the emitting operators of the tree at n the
// columns of their output that the consumer reads (need).
func stampNeed(n Node, need []bool) {
	switch x := n.(type) {
	case *Agg:
		cols := x
		if pa, ok := ProbeAgg(x); ok {
			// A fused fold reads the build key through the probe key.
			cols = pa
		}
		child := make([]bool, x.Child.OutSchema().Len())
		if cols.GroupCol >= 0 {
			child[cols.GroupCol] = true
		}
		for _, f := range cols.Funcs {
			if f.Kind != CountAll {
				child[f.Col] = true
			}
		}
		stampNeed(x.Child, child)
	case *Sort:
		stampNeed(x.Child, nil)
	case *NestLoop:
		x.Need = need
		stampNeed(x.Outer, nil)
	case *HashJoin:
		x.Need = need
		var left, build []bool
		if need != nil {
			nl := x.Left.OutSchema().Len()
			left = slices.Clone(need[:nl])
			left[x.LCol] = true
			build = slices.Clone(need[nl:])
		}
		if fs, ok := x.Right.(*FragScan); ok {
			fs.Frag.Need = build
		}
		stampNeed(x.Left, left)
	}
}
