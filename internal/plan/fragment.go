package plan

import (
	"fmt"
	"strings"
)

// OutKind describes how a fragment's output is consumed.
type OutKind int

const (
	// RootOut is the query's final result stream.
	RootOut OutKind = iota
	// TempOut materializes into an unordered temporary.
	TempOut
	// SortedOut materializes into a temporary sorted on SortCol.
	SortedOut
	// HashOut materializes into a hash table keyed on HashCol, consumed
	// by a HashJoin probe in the parent fragment.
	HashOut
)

// String implements fmt.Stringer.
func (k OutKind) String() string {
	switch k {
	case RootOut:
		return "root"
	case TempOut:
		return "temp"
	case SortedOut:
		return "sorted-temp"
	case HashOut:
		return "hash-table"
	default:
		return fmt.Sprintf("OutKind(%d)", int(k))
	}
}

// Fragment is one plan fragment: a maximal pipelineable operator subtree,
// the paper's unit of parallel execution (a "task"). Its Root tree
// contains no blocking edges; all blocking inputs have been replaced by
// FragScan leaves referencing the producing fragments listed in Inputs.
type Fragment struct {
	ID     int
	Root   Node
	Inputs []*Fragment
	Out    OutKind
	// SortCol is the output order column when Out == SortedOut.
	SortCol int
	// HashCol is the key column (in the fragment's output schema) when
	// Out == HashOut.
	HashCol int
	// HashParts is the build-side radix partition count hint when Out ==
	// HashOut; 0 lets the executor choose. Cost estimation stamps it from
	// the estimated build cardinality (see SuggestHashParts). Like the
	// executor's batch size it is purely a wall-clock knob: results and
	// virtual-clock totals are independent of its value.
	HashParts int
	// Need marks, per output column, whether the probe consuming this
	// fragment's hash table reads it; nil means every column is read.
	// Decompose stamps it (see need.go) and the executor never stores
	// an unmarked column in the table.
	Need []bool
}

// SuggestHashParts picks a build-side partition count from the estimated
// build cardinality: roughly one partition per 4K build rows keeps each
// partition's open-addressed table cache-resident, clamped to [1, 64]
// and rounded to a power of two by the executor.
func SuggestHashParts(rows float64) int {
	parts := 1
	for parts < 64 && rows > 4096*float64(parts) {
		parts *= 2
	}
	return parts
}

// Ready reports whether all input fragments are in the done set.
func (f *Fragment) Ready(done map[int]bool) bool {
	for _, in := range f.Inputs {
		if !done[in.ID] {
			return false
		}
	}
	return true
}

// Graph is the fragment dependency DAG of one plan. Fragments are listed
// in a valid bottom-up execution order (inputs before consumers); Root is
// always the last entry.
type Graph struct {
	Fragments []*Fragment
	Root      *Fragment
}

// Decompose cuts a sequential plan at its blocking edges and returns the
// fragment graph. The input tree is not modified; cut points are
// reconstructed with FragScan leaves in fresh parent nodes.
func Decompose(root Node) (*Graph, error) {
	if err := Validate(root); err != nil {
		return nil, err
	}
	g := &Graph{}
	f, err := g.newFragment(root, RootOut, 0)
	if err != nil {
		return nil, err
	}
	g.Root = f
	g.stampNeeds()
	return g, nil
}

// newFragment creates the fragment whose pipeline is rooted at n. If n is
// itself a blocking node (Sort, Material), it stays the fragment's root:
// a Sort pipelines with its input and blocks its consumer.
func (g *Graph) newFragment(n Node, out OutKind, meta int) (*Fragment, error) {
	f := &Fragment{Out: out}
	switch out {
	case SortedOut:
		f.SortCol = meta
	case HashOut:
		f.HashCol = meta
	}
	rewritten, err := g.rewrite(n, f, true)
	if err != nil {
		return nil, err
	}
	f.Root = rewritten
	f.ID = len(g.Fragments)
	g.Fragments = append(g.Fragments, f)
	return f, nil
}

// rewrite copies the pipelined part of the subtree at n into fragment f,
// creating child fragments at blocking edges. atRoot marks n as the
// fragment's own root, where a Sort/Material is absorbed rather than cut.
func (g *Graph) rewrite(n Node, f *Fragment, atRoot bool) (Node, error) {
	switch x := n.(type) {
	case *SeqScan:
		return x, nil
	case *IndexScan:
		return x, nil
	case *FragScan:
		return nil, fmt.Errorf("plan: FragScan in optimizer tree")
	case *Sort:
		if atRoot {
			child, err := g.rewrite(x.Child, f, false)
			if err != nil {
				return nil, err
			}
			return &Sort{Child: child, Col: x.Col}, nil
		}
		// Cut: the sort runs in its own fragment (pipelining with its
		// input), materializing a sorted temp.
		cf, err := g.newFragment(x, SortedOut, x.Col)
		if err != nil {
			return nil, err
		}
		f.Inputs = append(f.Inputs, cf)
		return &FragScan{Frag: cf, Schema: x.OutSchema()}, nil
	case *Agg:
		if atRoot {
			child, err := g.rewrite(x.Child, f, false)
			if err != nil {
				return nil, err
			}
			return &Agg{Child: child, GroupCol: x.GroupCol, Funcs: x.Funcs}, nil
		}
		// Cut: aggregation consumes its input pipeline in its own
		// fragment and materializes the per-group results.
		cf, err := g.newFragment(x, TempOut, 0)
		if err != nil {
			return nil, err
		}
		f.Inputs = append(f.Inputs, cf)
		return &FragScan{Frag: cf, Schema: x.OutSchema()}, nil
	case *Material:
		if atRoot {
			child, err := g.rewrite(x.Child, f, false)
			if err != nil {
				return nil, err
			}
			return child, nil // materialization is the fragment output itself
		}
		cf, err := g.newFragment(x.Child, TempOut, 0)
		if err != nil {
			return nil, err
		}
		f.Inputs = append(f.Inputs, cf)
		return &FragScan{Frag: cf, Schema: x.OutSchema()}, nil
	case *NestLoop:
		outer, err := g.rewrite(x.Outer, f, false)
		if err != nil {
			return nil, err
		}
		inner, err := g.rewrite(x.Inner, f, false)
		if err != nil {
			return nil, err
		}
		return &NestLoop{Outer: outer, Inner: inner, Pred: x.Pred}, nil
	case *HashJoin:
		// Build side is a blocking edge: it becomes its own fragment whose
		// output is the shared hash table.
		bf, err := g.newFragment(x.Right, HashOut, x.RCol)
		if err != nil {
			return nil, err
		}
		f.Inputs = append(f.Inputs, bf)
		left, err := g.rewrite(x.Left, f, false)
		if err != nil {
			return nil, err
		}
		return &HashJoin{
			Left:  left,
			Right: &FragScan{Frag: bf, Schema: x.Right.OutSchema()},
			LCol:  x.LCol,
			RCol:  x.RCol,
		}, nil
	case *MergeJoin:
		left, err := g.rewrite(x.Left, f, false)
		if err != nil {
			return nil, err
		}
		right, err := g.rewrite(x.Right, f, false)
		if err != nil {
			return nil, err
		}
		return &MergeJoin{Left: left, Right: right, LCol: x.LCol, RCol: x.RCol}, nil
	default:
		return nil, fmt.Errorf("plan: cannot decompose node %T", n)
	}
}

// DriverKind tells the executor how a fragment is partitioned for
// intra-operation parallelism (§2.4): page partitioning for sequential
// scans, range partitioning for index scans.
type DriverKind int

const (
	// PageDriver partitions the driving scan's pages (p mod n = i).
	PageDriver DriverKind = iota
	// RangeDriver partitions the driving index scan's key range.
	RangeDriver
	// MergeDriver partitions a merge join by key ranges of its sorted
	// inputs.
	MergeDriver
)

// String implements fmt.Stringer.
func (d DriverKind) String() string {
	switch d {
	case PageDriver:
		return "page-partitioned"
	case RangeDriver:
		return "range-partitioned"
	case MergeDriver:
		return "merge-range-partitioned"
	default:
		return fmt.Sprintf("DriverKind(%d)", int(d))
	}
}

// Driver returns the fragment's driving leaf — the pipelined input whose
// partitioning determines the fragment's parallelization — and the
// partitioning kind. For joins the driver is the outer (probe) side,
// matching XPRS ("joins are parallelized using either page partitioning
// or range partitioning depending on the type of scans in their inner
// and outer plans").
func (f *Fragment) Driver() (Node, DriverKind) {
	n := f.Root
	for {
		switch x := n.(type) {
		case *Sort:
			n = x.Child
		case *Agg:
			n = x.Child
		case *NestLoop:
			n = x.Outer
		case *HashJoin:
			n = x.Left
		case *MergeJoin:
			return x, MergeDriver
		case *IndexScan:
			return x, RangeDriver
		case *SeqScan:
			return x, PageDriver
		case *FragScan:
			return x, PageDriver
		default:
			panic(fmt.Sprintf("plan: fragment with unexpected node %T", n))
		}
	}
}

// ExplainGraph renders the fragment graph for EXPLAIN output.
func ExplainGraph(g *Graph) string {
	var b strings.Builder
	for _, f := range g.Fragments {
		deps := make([]string, len(f.Inputs))
		for i, in := range f.Inputs {
			deps[i] = fmt.Sprintf("f%d", in.ID)
		}
		dep := "-"
		if len(deps) > 0 {
			dep = strings.Join(deps, ",")
		}
		_, kind := f.Driver()
		fmt.Fprintf(&b, "fragment f%d (out: %s, driver: %s, inputs: %s)\n", f.ID, f.Out, kind, dep)
		for _, line := range strings.Split(strings.TrimRight(Explain(f.Root), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
