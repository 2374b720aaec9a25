package plan

import (
	"slices"
	"testing"

	"xprs/internal/storage"
)

// testRel3 builds r(a int4, c int4, b text).
func testRel3(t *testing.T, id int32, name string) *storage.Relation {
	t.Helper()
	b := storage.NewBuilder(id, name, storage.NewSchema(
		storage.Column{Name: "a", Typ: storage.Int4},
		storage.Column{Name: "c", Typ: storage.Int4},
		storage.Column{Name: "b", Typ: storage.Text},
	))
	if err := b.Append(storage.NewTuple(storage.IntVal(1), storage.IntVal(2), storage.TextVal("x"))); err != nil {
		t.Fatal(err)
	}
	return b.Finalize()
}

// probesOf lists the HashJoins of every fragment, fragments in graph
// order and each tree pre-order.
func probesOf(g *Graph) []*HashJoin {
	var out []*HashJoin
	for _, f := range g.Fragments {
		Walk(f.Root, func(n Node) {
			if hj, ok := n.(*HashJoin); ok {
				out = append(out, hj)
			}
		})
	}
	return out
}

func wantNeed(t *testing.T, what string, got, want []bool) {
	t.Helper()
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Errorf("%s need = %v, want %v", what, got, want)
	}
}

// TestNeedStamps pins the need analysis Decompose runs: what each probe
// emits and which build columns each hash table stores.
func TestNeedStamps(t *testing.T) {
	r1, r2, r3 := testRel(t, 1, "r1", 4), testRel(t, 2, "r2", 4), testRel3(t, 3, "r3")
	scan := func(r *storage.Relation) Node { return &SeqScan{Rel: r} }
	count := []AggFunc{{Kind: CountAll}}
	no, yes := false, true
	cases := []struct {
		name string
		root Node
		// probes lists the stamped Need of every probe (see probesOf);
		// builds lists each HashOut fragment's Need in graph order.
		probes [][]bool
		builds [][]bool
		fused  bool
	}{
		{
			// Group on a probe column: the table keeps nothing.
			name:   "GroupProbeKey",
			root:   &Agg{Child: &HashJoin{Left: scan(r1), Right: scan(r2)}, GroupCol: 0, Funcs: count},
			probes: [][]bool{{yes, no, no, no}},
			builds: [][]bool{{no, no}},
			fused:  true,
		},
		{
			// Group on the build key: read as the probe key it equals.
			name:   "GroupBuildKey",
			root:   &Agg{Child: &HashJoin{Left: scan(r1), Right: scan(r2)}, GroupCol: 2, Funcs: []AggFunc{{Kind: Max, Col: 2}}},
			probes: [][]bool{{yes, no, no, no}},
			builds: [][]bool{{no, no}},
			fused:  true,
		},
		{
			// Group on a build column other than the key: no fusion; the
			// table keeps that column only.
			name:   "GroupBuildCol",
			root:   &Agg{Child: &HashJoin{Left: scan(r1), Right: scan(r3)}, GroupCol: 3, Funcs: []AggFunc{{Kind: Sum, Col: 0}}},
			probes: [][]bool{{yes, no, no, yes, no}},
			builds: [][]bool{{no, yes, no}},
		},
		{
			// A chain under a fused fold: the lower probe emits the group
			// column and the upper probe key, and its table keeps that key.
			name: "Chain",
			root: &Agg{Child: &HashJoin{
				Left:  &HashJoin{Left: scan(r1), Right: scan(r2)},
				Right: scan(r3), LCol: 2,
			}, GroupCol: 0, Funcs: count},
			probes: [][]bool{{yes, no, no, no, no, no, no}, {yes, no, yes, no}},
			builds: [][]bool{{no, no, no}, {yes, no}},
			fused:  true,
		},
		{
			// A bushy build side: the build fragment's own probe emits its
			// hash key and what its table keeps, and need flows on into
			// the table that probe reads.
			name: "BushyBuild",
			root: &Agg{Child: &HashJoin{
				Left:  scan(r1),
				Right: &HashJoin{Left: scan(r2), Right: scan(r3)},
			}, GroupCol: 0, Funcs: []AggFunc{{Kind: Min, Col: 5}}},
			probes: [][]bool{{yes, no, no, yes, no}, {yes, no, no, no, no, yes, no}},
			builds: [][]bool{{no, yes, no}, {no, no, no, yes, no}},
		},
		{
			// A sorted result is read whole: nothing is pruned.
			name:   "SortRoot",
			root:   &Sort{Child: &HashJoin{Left: scan(r1), Right: scan(r2)}, Col: 0},
			probes: [][]bool{nil},
			builds: [][]bool{nil},
		},
	}
	for _, c := range cases {
		g, err := Decompose(c.root)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		probes := probesOf(g)
		if len(probes) != len(c.probes) {
			t.Fatalf("%s: %d probes, want %d", c.name, len(probes), len(c.probes))
		}
		for i, hj := range probes {
			wantNeed(t, c.name+" probe", hj.Need, c.probes[i])
		}
		var builds []*Fragment
		for _, f := range g.Fragments {
			if f.Out == HashOut {
				builds = append(builds, f)
			}
		}
		if len(builds) != len(c.builds) {
			t.Fatalf("%s: %d hash fragments, want %d", c.name, len(builds), len(c.builds))
		}
		for i, f := range builds {
			wantNeed(t, c.name+" build", f.Need, c.builds[i])
		}
		fused := false
		if a, ok := g.Root.Root.(*Agg); ok {
			_, fused = ProbeAgg(a)
		}
		if fused != c.fused {
			t.Errorf("%s: fused = %v, want %v", c.name, fused, c.fused)
		}
	}
}

// TestProbeAggRemap pins the column remap of a fused fold.
func TestProbeAggRemap(t *testing.T) {
	r1, r3 := testRel3(t, 1, "r1"), testRel3(t, 3, "r3")
	hj := &HashJoin{Left: &SeqScan{Rel: r1}, Right: &SeqScan{Rel: r3}, LCol: 1, RCol: 0}
	a := &Agg{Child: hj, GroupCol: 3, Funcs: []AggFunc{{Kind: CountAll}, {Kind: Sum, Col: 0}, {Kind: Max, Col: 3}}}
	pa, ok := ProbeAgg(a)
	if !ok {
		t.Fatal("ProbeAgg refused a probe-only aggregate")
	}
	if pa.Child != hj.Left || pa.GroupCol != 1 || pa.Funcs[1].Col != 0 || pa.Funcs[2].Col != 1 {
		t.Fatalf("remapped aggregate = %+v", pa)
	}
	if a.GroupCol != 3 || a.Funcs[2].Col != 3 {
		t.Fatal("ProbeAgg modified its input")
	}
	for _, bad := range []*Agg{
		{Child: hj, GroupCol: 4, Funcs: []AggFunc{{Kind: CountAll}}},
		{Child: hj, GroupCol: 0, Funcs: []AggFunc{{Kind: Min, Col: 4}}},
		{Child: &SeqScan{Rel: r1}, GroupCol: 0, Funcs: []AggFunc{{Kind: CountAll}}},
	} {
		if _, ok := ProbeAgg(bad); ok {
			t.Errorf("ProbeAgg accepted %s", bad.Label())
		}
	}
}
