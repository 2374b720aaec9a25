// Package plan represents XPRS sequential execution plans and their
// decomposition into plan fragments.
//
// A sequential plan is a binary tree of the basic relational operations
// (§2.1): sequential scan, index scan, nestloop join, merge join and hash
// join. The parallelizer decomposes a plan at its blocking edges — edges
// where one operation must wait for the other to finish producing all its
// tuples — into plan fragments, the maximal pipelineable subgraphs. Plan
// fragments are the units of parallel execution; they are the "tasks"
// fed to the scheduler.
//
// Blocking edges in this node algebra arise at:
//   - the output of a Sort (its parent cannot start until the sort ends),
//   - the build side of a HashJoin (probing waits for the full table),
//   - the output of a Material (explicit materialization for rescans).
//
// Decompose rewrites the plan, replacing each cut subtree with a FragScan
// leaf referring to the producing fragment, and returns the fragment
// dependency graph.
package plan

import (
	"fmt"
	"strings"

	"xprs/internal/btree"
	"xprs/internal/expr"
	"xprs/internal/storage"
)

// Node is one operator of a sequential plan tree.
type Node interface {
	// OutSchema is the schema of the tuples the node produces.
	OutSchema() storage.Schema
	// Children returns the input operators, outer (left) first.
	Children() []Node
	// Label renders a one-line description for EXPLAIN output.
	Label() string
}

// SeqScan reads a base relation page by page, applying an optional
// qualification. Parallelized by page partitioning.
type SeqScan struct {
	Rel    *storage.Relation
	Filter expr.Expr
}

// OutSchema implements Node.
func (s *SeqScan) OutSchema() storage.Schema { return s.Rel.Schema }

// Children implements Node.
func (s *SeqScan) Children() []Node { return nil }

// Label implements Node.
func (s *SeqScan) Label() string {
	if s.Filter != nil {
		return fmt.Sprintf("SeqScan(%s) filter: %s", s.Rel.Name, s.Filter.String())
	}
	return fmt.Sprintf("SeqScan(%s)", s.Rel.Name)
}

// IndexScan reads tuples whose indexed key lies in [Lo, Hi], following
// index pointers to heap pages. Parallelized by range partitioning.
type IndexScan struct {
	Rel    *storage.Relation
	Index  *btree.Index
	Lo, Hi int32
	Filter expr.Expr // residual qualification beyond the key range
}

// OutSchema implements Node.
func (s *IndexScan) OutSchema() storage.Schema { return s.Rel.Schema }

// Children implements Node.
func (s *IndexScan) Children() []Node { return nil }

// Label implements Node.
func (s *IndexScan) Label() string {
	l := fmt.Sprintf("IndexScan(%s.%s in [%d,%d])", s.Rel.Name, s.Index.KeyColumn(), s.Lo, s.Hi)
	if s.Filter != nil {
		l += " filter: " + s.Filter.String()
	}
	return l
}

// FragScan reads the materialized output of another fragment. Created by
// Decompose; it never appears in optimizer-built trees.
type FragScan struct {
	Frag   *Fragment
	Schema storage.Schema
}

// OutSchema implements Node.
func (s *FragScan) OutSchema() storage.Schema { return s.Schema }

// Children implements Node.
func (s *FragScan) Children() []Node { return nil }

// Label implements Node.
func (s *FragScan) Label() string { return fmt.Sprintf("FragScan(f%d)", s.Frag.ID) }

// NestLoop joins by rescanning the inner input for every outer tuple.
// The inner child must be rescannable: a scan leaf or a Material.
type NestLoop struct {
	Outer, Inner Node
	Pred         expr.Expr // over the concatenated (outer, inner) schema
	// Need marks the output columns the consumer reads (nil: all);
	// Decompose stamps it and the executor emits only those.
	Need []bool
}

// OutSchema implements Node.
func (j *NestLoop) OutSchema() storage.Schema {
	return j.Outer.OutSchema().Concat(j.Inner.OutSchema())
}

// Children implements Node.
func (j *NestLoop) Children() []Node { return []Node{j.Outer, j.Inner} }

// Label implements Node.
func (j *NestLoop) Label() string {
	if j.Pred != nil {
		return "NestLoop on " + j.Pred.String()
	}
	return "NestLoop (cartesian)"
}

// HashJoin builds a hash table on its right child's RCol and probes it
// with left tuples' LCol. The build edge is blocking.
type HashJoin struct {
	Left, Right Node
	LCol, RCol  int
	// Need marks the output columns the consumer reads (nil: all);
	// Decompose stamps it and the executor emits only those.
	Need []bool
}

// OutSchema implements Node.
func (j *HashJoin) OutSchema() storage.Schema {
	return j.Left.OutSchema().Concat(j.Right.OutSchema())
}

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Label implements Node.
func (j *HashJoin) Label() string {
	return fmt.Sprintf("HashJoin L.$%d = R.$%d (build right)", j.LCol, j.RCol)
}

// MergeJoin merges two inputs sorted on the join columns. The optimizer
// places Sort nodes under it as needed.
type MergeJoin struct {
	Left, Right Node
	LCol, RCol  int
}

// OutSchema implements Node.
func (j *MergeJoin) OutSchema() storage.Schema {
	return j.Left.OutSchema().Concat(j.Right.OutSchema())
}

// Children implements Node.
func (j *MergeJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Label implements Node.
func (j *MergeJoin) Label() string {
	return fmt.Sprintf("MergeJoin L.$%d = R.$%d", j.LCol, j.RCol)
}

// Sort orders its input by one int4 column. Its output edge is blocking.
type Sort struct {
	Child Node
	Col   int
}

// OutSchema implements Node.
func (s *Sort) OutSchema() storage.Schema { return s.Child.OutSchema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Label implements Node.
func (s *Sort) Label() string { return fmt.Sprintf("Sort by $%d", s.Col) }

// Material materializes its input so a NestLoop can rescan it cheaply.
// Its output edge is blocking.
type Material struct {
	Child Node
}

// OutSchema implements Node.
func (m *Material) OutSchema() storage.Schema { return m.Child.OutSchema() }

// Children implements Node.
func (m *Material) Children() []Node { return []Node{m.Child} }

// Label implements Node.
func (m *Material) Label() string { return "Material" }

// Walk visits n and all descendants pre-order.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// Explain renders the plan tree, one node per line, indented by depth.
func Explain(n Node) string {
	var b strings.Builder
	var rec func(Node, int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Label())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// Validate checks structural invariants the executor relies on:
// NestLoop inners are rescannable, MergeJoin inputs are sorted on the
// join columns, join columns are in range, and column types are int4
// where sort/hash/merge require it.
func Validate(n Node) error {
	switch x := n.(type) {
	case *SeqScan, *FragScan:
	case *IndexScan:
		if x.Lo > x.Hi {
			return fmt.Errorf("plan: IndexScan range [%d,%d] is empty", x.Lo, x.Hi)
		}
	case *NestLoop:
		switch inner := x.Inner.(type) {
		case *SeqScan, *IndexScan, *FragScan, *Material:
			_ = inner
		default:
			return fmt.Errorf("plan: NestLoop inner %T is not rescannable", x.Inner)
		}
	case *HashJoin:
		if err := checkJoinCols(x.Left, x.Right, x.LCol, x.RCol); err != nil {
			return fmt.Errorf("plan: HashJoin: %w", err)
		}
	case *MergeJoin:
		if err := checkJoinCols(x.Left, x.Right, x.LCol, x.RCol); err != nil {
			return fmt.Errorf("plan: MergeJoin: %w", err)
		}
		if !sortedOn(x.Left, x.LCol) {
			return fmt.Errorf("plan: MergeJoin left input not sorted on $%d", x.LCol)
		}
		if !sortedOn(x.Right, x.RCol) {
			return fmt.Errorf("plan: MergeJoin right input not sorted on $%d", x.RCol)
		}
	case *Sort:
		if x.Col < 0 || x.Col >= x.Child.OutSchema().Len() {
			return fmt.Errorf("plan: Sort column $%d out of range", x.Col)
		}
		if x.Child.OutSchema().Cols[x.Col].Typ != storage.Int4 {
			return fmt.Errorf("plan: Sort column $%d is not int4", x.Col)
		}
	case *Material:
	case *Agg:
		if err := validateAgg(x); err != nil {
			return err
		}
	default:
		return fmt.Errorf("plan: unknown node %T", n)
	}
	for _, c := range n.Children() {
		if err := Validate(c); err != nil {
			return err
		}
	}
	return nil
}

func checkJoinCols(l, r Node, lc, rc int) error {
	if lc < 0 || lc >= l.OutSchema().Len() {
		return fmt.Errorf("left column $%d out of range", lc)
	}
	if rc < 0 || rc >= r.OutSchema().Len() {
		return fmt.Errorf("right column $%d out of range", rc)
	}
	if l.OutSchema().Cols[lc].Typ != storage.Int4 || r.OutSchema().Cols[rc].Typ != storage.Int4 {
		return fmt.Errorf("join columns must be int4")
	}
	return nil
}

// sortedOn reports whether a node's output is known-sorted on col.
func sortedOn(n Node, col int) bool {
	switch x := n.(type) {
	case *Sort:
		return x.Col == col
	case *FragScan:
		return x.Frag != nil && x.Frag.Out == SortedOut && x.Frag.SortCol == col
	case *IndexScan:
		// Index scans emit in key order.
		return x.Index != nil && x.Index.Col == col
	default:
		return false
	}
}
