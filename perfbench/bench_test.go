package main

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"xprs"
	"xprs/internal/sqlmini"
)

func TestAdhocQueriesAreSeededDistinctChains(t *testing.T) {
	a := genAdhocQueries(rand.New(rand.NewSource(7)), 300)
	b := genAdhocQueries(rand.New(rand.NewSource(7)), 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different queries")
	}
	if c := genAdhocQueries(rand.New(rand.NewSource(8)), 300); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated the same queries")
	}
	seen := make(map[string]bool)
	ways := make(map[int]int)
	for _, q := range a {
		if seen[q.sql] {
			t.Fatalf("duplicate text %q", q.sql)
		}
		seen[q.sql] = true
		k := len(q.rels)
		ways[k]++
		if k < 2 || k > adhocRels {
			t.Fatalf("%d-way join: %s", k, q.sql)
		}
		used := make(map[int]bool)
		for _, r := range q.rels {
			if used[r] || r < 0 || r >= adhocRels {
				t.Fatalf("bad relation list %v", q.rels)
			}
			used[r] = true
		}
		if q.lo < 0 || q.hi < q.lo || q.hi >= adhocKeys || q.hi-q.lo >= adhocMaxWidth {
			t.Fatalf("bad range [%d,%d]", q.lo, q.hi)
		}
		p, err := sqlmini.Parse(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if len(p.Tables) != k || p.GroupBy == nil || len(p.Aggs) != 1 {
			t.Fatalf("parsed shape of %s: %+v", q.sql, p)
		}
		if strings.Count(q.sql, " = ") != k-1 {
			t.Fatalf("%s: want a chain of %d join predicates", q.sql, k-1)
		}
	}
	for k := 2; k <= adhocRels; k++ {
		if ways[k] == 0 {
			t.Errorf("no %d-way joins in 300 queries", k)
		}
	}
}

func TestAdhocOracleIsProductOfKeyCounts(t *testing.T) {
	counts := []map[int32]int32{
		{1: 2, 2: 1, 5: 3},
		{1: 3, 5: 1},
		{1: 1, 2: 4, 5: 2},
	}
	q := adhocQuery{rels: []int{0, 1, 2}, lo: 1, hi: 5}
	want := map[int32]int32{1: 6, 5: 6}
	if got := adhocOracle(q, counts); !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle %v, want %v", got, want)
	}
	q = adhocQuery{rels: []int{2, 0}, lo: 2, hi: 2}
	if got := adhocOracle(q, counts); !reflect.DeepEqual(got, map[int32]int32{2: 4}) {
		t.Fatalf("oracle %v, want {2:4}", got)
	}
}

// TestAdhocOracleMatchesSystem runs a small instance of the workload and
// checks every answered query against the oracle.
func TestAdhocOracleMatchesSystem(t *testing.T) {
	a, err := newAdhoc(3, false, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	var answered int
	var chk groupChecker
	for i, q := range a.queries {
		out, _, err := a.sys.ExecSQL(q.sql, xprs.InterAdj)
		if err != nil {
			if !knownDefect.MatchString(err.Error()) {
				t.Fatalf("%s: %v", q.sql, err)
			}
			continue // counted by the benchmark
		}
		if err := chk.check(out, a.want[i]); err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		answered++
	}
	if answered < len(a.queries)/2 {
		t.Fatalf("only %d of %d queries answered", answered, len(a.queries))
	}
	rs, err := a.round()
	if err != nil {
		t.Fatal(err)
	}
	if rs.attempted != int64(len(a.queries)) || rs.completed != int64(answered) || rs.planHits != 0 {
		t.Fatalf("round: %+v, want %d attempted, %d completed, no plan-cache hits", rs, len(a.queries), answered)
	}
}

func TestKnownDefectMatchesOnlyTheMergeJoinError(t *testing.T) {
	for _, msg := range []string{
		"exec: merge join left input is *plan.IndexScan, want sorted FragScan",
		"exec: merge join right input is *plan.IndexScan, want sorted FragScan",
	} {
		if !knownDefect.MatchString(msg) {
			t.Errorf("known defect not matched: %s", msg)
		}
	}
	for _, msg := range []string{
		"exec: merge join left input is *plan.SeqScan, want sorted FragScan",
		"exec: merge join inputs not sorted on join columns",
		"sqlmini: unknown relation t9",
		"",
	} {
		if knownDefect.MatchString(msg) {
			t.Errorf("unrelated error matched: %q", msg)
		}
	}
}

// TestAdhocRoundFailsOnUnknownError checks that an error other than the
// known defect fails the round instead of counting in failed.
func TestAdhocRoundFailsOnUnknownError(t *testing.T) {
	a, err := newAdhoc(3, false, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.round(); err != nil {
		t.Fatal(err)
	}
	a.queries[5].sql = "select t9.a, count(*) from t9 group by t9.a"
	rs, err := a.round()
	if err == nil || !strings.Contains(err.Error(), "t9") {
		t.Fatalf("round with an unknown relation: %+v, error %v", rs, err)
	}
}

// TestMeasuredCountsDoNotDependOnSpeed checks that a run's round count
// follows from -seconds alone, so two runs of a seed attempt the same
// queries and report the same failed count however fast the host is.
func TestMeasuredCountsDoNotDependOnSpeed(t *testing.T) {
	for _, w := range workloads {
		if n := w.rounds(10 * time.Second); n < 2 || n != w.rounds(10*time.Second) {
			t.Errorf("%s: %d rounds for 10 s", w.name, n)
		}
		if n := w.rounds(time.Millisecond); n != 2 {
			t.Errorf("%s: %d rounds for 1 ms, want the minimum 2", w.name, n)
		}
	}
	var runs [2]passStats
	for i := range runs {
		a, err := newAdhoc(5, false, 10, 60)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = measure(a, 3); err != nil {
			t.Fatal(err)
		}
	}
	if runs[0].attempted != 3*60 || runs[0].attempted != runs[1].attempted || runs[0].failed != runs[1].failed {
		t.Fatalf("runs attempted/failed %d/%d and %d/%d, want %d attempted each and equal failed",
			runs[0].attempted, runs[0].failed, runs[1].attempted, runs[1].failed, 3*60)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"xprs/internal/exec.(*Scheduler).admit", "/x/internal/exec/scheduler.go", "exec.admission"},
		{"xprs/internal/exec.(*waitQ).push", "/x/internal/exec/scheduler.go", "exec.admission"},
		{"xprs/internal/exec.(*Scheduler).loop.func1", "/x/internal/exec/scheduler.go", "exec.sched"},
		{"xprs/internal/exec.(*ColHashTable).ProbeKey", "/x/internal/exec/colhash.go", "exec.hash"},
		{"xprs/internal/exec.runColPipeline", "/x/internal/exec/colpipe.go", "exec.pipe"},
		{"xprs/internal/vclock.(*Virtual).Sleep", "/x/internal/vclock/vclock.go", "vclock"},
		{"xprs/internal/plan.Decompose", "/x/internal/plan/fragment.go", ""},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestCPUSharesOfRealProfile(t *testing.T) {
	a, err := newAdhoc(5, false, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		if _, err := a.round(); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range cpuLayers {
		s, ok := shares[l]
		if !ok || s < 0 {
			t.Fatalf("layer %s: share %v, present %v", l, s, ok)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if shares["other"] == 1 {
		t.Fatal("no sample attributed to a layer")
	}
}
