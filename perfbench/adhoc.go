package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"time"
	"weak"

	"xprs"
)

// adhoc-join: one closed-loop client sending a new SQL text each time:
// a 2-5-way chain equi-join on a over five relations (two with
// unclustered B-tree indexes), with a seeded BETWEEN and a group by.
// Every call misses the plan cache, so planning is a large share of
// each query, and the plans reach the row-path operators (index scan,
// merge join, nested loop) that join-agg never uses.
const (
	adhocRels = 5
	// adhocKeys is the key domain of every relation's column a.
	adhocKeys = 1000
	// adhocPass is the number of distinct queries in one pass; a round
	// runs one pass.
	adhocPass = 1000
	// adhocMaxWidth bounds the BETWEEN range width.
	adhocMaxWidth = 60
)

// adhocRows are the relations' row counts; t1 and t3 carry unclustered
// indexes on a.
var (
	adhocRows    = [adhocRels]int{4000, 3000, 2500, 2000, 1500}
	adhocIndexed = [adhocRels]bool{false, true, false, true, false}
)

// adhocQuery is one generated query: relations in chain order, the
// BETWEEN range and the chain position whose column carries it.
type adhocQuery struct {
	rels    []int
	lo, hi  int32
	rangeOn int
	sql     string
}

// genAdhocData draws every relation's keys uniformly from the key
// domain.
func genAdhocData(rng *rand.Rand, scale int) [][]row {
	data := make([][]row, adhocRels)
	for r := range data {
		n := adhocRows[r] / scale
		data[r] = make([]row, n)
		for i := range data[r] {
			data[r][i] = row{A: rng.Int31n(adhocKeys), B: fmt.Sprintf("t%d-%05d", r, i)}
		}
	}
	return data
}

// genAdhocQueries draws n queries with pairwise distinct texts. The
// join width cycles through 2..5 so every seed has the same mix of
// widths; relations, their order and the range are drawn.
func genAdhocQueries(rng *rand.Rand, n int) []adhocQuery {
	seen := make(map[string]bool, n)
	qs := make([]adhocQuery, 0, n)
	for len(qs) < n {
		k := 2 + len(qs)%(adhocRels-1)
		q := adhocQuery{rels: rng.Perm(adhocRels)[:k], rangeOn: rng.Intn(k)}
		width := 1 + rng.Int31n(adhocMaxWidth)
		q.lo = rng.Int31n(adhocKeys - width)
		q.hi = q.lo + width - 1
		q.sql = q.text()
		if !seen[q.sql] {
			seen[q.sql] = true
			qs = append(qs, q)
		}
	}
	return qs
}

func (q adhocQuery) text() string {
	var b strings.Builder
	first := fmt.Sprintf("t%d", q.rels[0])
	fmt.Fprintf(&b, "select %s.a, count(*) from ", first)
	for i, r := range q.rels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "t%d", r)
	}
	b.WriteString(" where ")
	for i := 1; i < len(q.rels); i++ {
		fmt.Fprintf(&b, "t%d.a = t%d.a and ", q.rels[i-1], q.rels[i])
	}
	fmt.Fprintf(&b, "t%d.a between %d and %d group by %s.a", q.rels[q.rangeOn], q.lo, q.hi, first)
	return b.String()
}

// adhocOracle computes a query's groups without the system: a chain
// equi-join on one column, grouped by it, has count(*) equal to the
// product of each relation's count of the key.
func adhocOracle(q adhocQuery, counts []map[int32]int32) map[int32]int32 {
	want := make(map[int32]int32)
	for a := q.lo; a <= q.hi; a++ {
		n := int32(1)
		for _, r := range q.rels {
			n *= counts[r][a]
		}
		if n > 0 {
			want[a] = n
		}
	}
	return want
}

type adhoc struct {
	sys     *xprs.System
	queries []adhocQuery
	want    []map[int32]int32
	// pass counts rounds; each round first changes the catalog so the
	// plan cache holds nothing from the previous pass.
	pass int
	chk  groupChecker
	// errs remembers each distinct query error, reported once.
	errs map[string]bool
	// plans holds a weak pointer to each text's plan from the previous
	// pass; a call that returns the same instance was served from the
	// plan cache. Weak, so that plans the cache dropped are not kept
	// alive through the next pass.
	plans map[string]weak.Pointer[xprs.OptResult]
}

// knownDefect matches the one execution error adhoc-join tolerates: the
// optimizer puts an index scan under a merge join, whose driver wants
// sorted temps (internal/exec/mergepart.go). Any other error fails the
// run.
var knownDefect = regexp.MustCompile(`^exec: merge join (left|right) input is \*plan\.IndexScan, want sorted FragScan$`)

// Replay sizes: the first adhocReplay queries are replayed layer by
// layer, the first adhocKernels through the kernel replays.
const (
	adhocReplay  = 200
	adhocKernels = 60
)

func setupAdhoc(seed int64, observe bool) (bench, error) {
	return newAdhoc(seed, observe, 1, adhocPass)
}

// newAdhoc builds the workload with every relation divided by scale and
// n queries per pass (tests use a small instance).
func newAdhoc(seed int64, observe bool, scale, n int) (*adhoc, error) {
	rng := rand.New(rand.NewSource(seed))
	data := genAdhocData(rng, scale)
	sys := xprs.New(benchConfig(observe))
	counts := make([]map[int32]int32, adhocRels)
	for r, rows := range data {
		name := fmt.Sprintf("t%d", r)
		if _, err := sys.LoadRelation(name, rows); err != nil {
			return nil, err
		}
		if adhocIndexed[r] {
			if _, err := sys.BuildIndex(name, false); err != nil {
				return nil, err
			}
		}
		counts[r] = keyCounts(rows)
	}
	a := &adhoc{sys: sys, queries: genAdhocQueries(rng, n), errs: make(map[string]bool),
		plans: make(map[string]weak.Pointer[xprs.OptResult])}
	for _, q := range a.queries {
		a.want = append(a.want, adhocOracle(q, counts))
	}
	return a, nil
}

func (a *adhoc) round() (roundStats, error) {
	a.pass++
	if _, err := a.sys.LoadRelation(fmt.Sprintf("pass%d", a.pass), []row{{A: 0, B: "x"}}); err != nil {
		return roundStats{}, err
	}
	rs := roundStats{latencies: make([]time.Duration, 0, len(a.queries))}
	h := sha256.New()
	for i, q := range a.queries {
		start := time.Now()
		out, res, rep, err := a.sys.ExecSQLReport(q.sql, xprs.InterAdj)
		el := time.Since(start)
		rs.attempted++
		rs.busy += el
		rs.latencies = append(rs.latencies, el)
		if err != nil {
			if !knownDefect.MatchString(err.Error()) {
				return rs, fmt.Errorf("adhoc-join query %d (%s): %w", i, q.sql, err)
			}
			// The known defect counts in failed and lowers
			// answered_frac; the session keeps serving the rest of the
			// pass.
			rs.failed++
			fmt.Fprintf(h, "%d:error\n", i)
			if !a.errs[err.Error()] {
				a.errs[err.Error()] = true
				fmt.Fprintf(os.Stderr, "adhoc-join query %d failed: %v\n  %s\n", i, err, q.sql)
			}
			continue
		}
		if err := a.chk.check(out, a.want[i]); err != nil {
			return rs, fmt.Errorf("adhoc-join query %d (%s): %w", i, q.sql, err)
		}
		fmt.Fprintf(h, "%d:%d\n", i, rep.Elapsed)
		wp := weak.Make(res)
		if a.plans[q.sql] == wp {
			rs.planHits++
		}
		a.plans[q.sql] = wp
		rs.completed++
	}
	rs.digest = hex.EncodeToString(h.Sum(nil)[:12])
	return rs, nil
}

func (a *adhoc) replay(l *ledger) error {
	var texts []string
	for i, q := range a.queries {
		if i < adhocReplay {
			texts = append(texts, q.sql)
		}
		if i < adhocKernels {
			k := kernelSpec{lo: q.lo, hi: q.hi}
			for _, r := range q.rels {
				rel, _ := a.sys.Relation(fmt.Sprintf("t%d", r))
				k.rels = append(k.rels, rel)
			}
			l.kernels = append(l.kernels, k)
		}
	}
	return replaySQL(l, a.sys, texts, 1)
}
