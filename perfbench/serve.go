package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"xprs"
	"xprs/internal/core"
	"xprs/internal/cost"
	"xprs/internal/diskmodel"
	"xprs/internal/exec"
	"xprs/internal/expr"
	"xprs/internal/obs"
	"xprs/internal/plan"
	"xprs/internal/storage"
	"xprs/internal/vclock"
	"xprs/internal/workload"
)

// serve-steady and serve-overload: the open-loop tenant mix
// (xprs.RunServe), 6 tenants × 2 selection templates of 120 tuples,
// bursty MMPP arrivals, admission limits MaxQueries 16, tenant quota 8
// and MaxQueued 1000. The queries are tiny, so the wall time goes to
// per-query overhead: scheduler intake and admission, the controller,
// the virtual clock, telemetry and synthetic page generation. At rate
// 6 admission waits occur but nothing is shed; at rate 12 the admission
// queue fills to MaxQueued and about a sixth of the sessions are shed.
type serveShape struct {
	name string
	rate float64
	// sessions per round: one RunServe call. Overload needs thousands
	// of sessions before the admission queue reaches MaxQueued.
	sessions int
	// sheds says whether every round must shed some sessions: the
	// admission overflow path is what serve-overload measures.
	sheds bool
	// pinned is the ServeStats digest of a pinnedSessions run at seed
	// serveCatalogSeed; every set-up checks it.
	pinned string
	// measured is the ServeStats digest of a measured round (sessions
	// sessions) at seed serveCatalogSeed; every round at that seed
	// checks it.
	measured string
}

var (
	serveSteady   = serveShape{"serve-steady", 6, 4000, false, "a5db96465d3803cc7f71c4ed", "96e38451f3cc913eaae82931"}
	serveOverload = serveShape{"serve-overload", 12, 8000, true, "3289354ce7287532158e3ed4", "73ac2b150d7bdb4268df8427"}
)

// traceSampleOneIn is the traced serve pass's head-sampling rate.
const traceSampleOneIn = 16

// pinnedSessions is the length of the pinned check's run.
const pinnedSessions = 500

func (sh serveShape) options(seed int64) xprs.ServeOptions {
	return xprs.ServeOptions{
		Sessions:  sh.sessions,
		Tenants:   6,
		Templates: 2,
		Tuples:    120,
		Rate:      sh.rate,
		Bursty:    true,
		Adm: xprs.Admission{
			MaxQueries:       16,
			TenantMaxQueries: 8,
			MaxQueued:        1000,
			SLOTarget:        2 * time.Second,
		},
		Seed: seed,
	}
}

type serveBench struct {
	shape serveShape
	cfg   xprs.Config
	opts  xprs.ServeOptions
	// stats are the first round's, for the replay check.
	stats *xprs.ServeStats
}

// serveCatalogSeed fixes the tenant catalog (the templates' scan
// rates), which is the served system's configuration; --seed draws the
// traffic: arrival times, tenants and templates. Drawing the catalog
// from --seed too would swing capacity, and with it the shed share and
// throughput, from seed to seed.
const serveCatalogSeed = 1

// serveChunk is the number of arrivals per latency sample.
const serveChunk = 100

// timedArrivals wraps the arrival process, whose Next the open-loop
// driver calls once per session, and records the wall time per session
// over each chunk of serveChunk arrivals.
type timedArrivals struct {
	workload.ArrivalProcess
	n       int
	last    time.Time
	samples []time.Duration
}

func (a *timedArrivals) Next() time.Duration {
	now := time.Now()
	if a.n == 0 {
		a.last = now
	}
	a.n++
	if a.n%serveChunk == 0 {
		a.samples = append(a.samples, now.Sub(a.last)/serveChunk)
		a.last = now
	}
	return a.ArrivalProcess.Next()
}

// runServe is xprs.RunServe with the catalog drawn from
// serveCatalogSeed and the traffic from o.Seed: the same construction,
// scheduler session and open-loop driver. At o.Seed == serveCatalogSeed
// it is RunServe exactly, which set-up checks. It checks the run's
// accounting and also returns the wall time per session over each
// chunk of arrivals.
func runServe(cfg xprs.Config, o xprs.ServeOptions) (*xprs.ServeStats, string, []time.Duration, error) {
	clock := vclock.NewVirtual()
	disks := diskmodel.New(clock, cfg.Disk)
	store := storage.NewStore(clock, disks, cfg.BufferPoolPages)
	params := cost.DefaultParams(cfg.Disk, cfg.NProcs)
	eng := exec.New(clock, store, params)
	if cfg.Observe {
		ob := obs.NewObserverBudget(cfg.TraceBudget)
		eng.Trace, eng.Metrics = ob.Trace, ob.Metrics
	}
	cat, err := workload.BuildTenantCatalog(store, params, workload.TenantMix{
		Tenants: o.Tenants, Templates: o.Templates, Tuples: o.Tuples,
	}, serveCatalogSeed)
	if err != nil {
		return nil, "", nil, err
	}
	arr := &timedArrivals{ArrivalProcess: workload.NewBursty(o.Seed+1, o.Rate, o.Rate*8, 0.05, 0.25)}
	var st *xprs.ServeStats
	clock.Run(func() {
		sched := exec.NewScheduler(eng, core.InterAdj, core.Options{}, o.Adm)
		st, err = workload.RunOpenLoop(clock, sched, cat, arr, o.Sessions, o.Seed+2)
		if derr := sched.Drain(); err == nil {
			err = derr
		}
	})
	if err != nil {
		return nil, "", nil, err
	}
	if st.Submitted != o.Sessions || st.Completed+st.Shed != st.Submitted {
		return nil, "", nil, fmt.Errorf("submitted %d, completed %d + shed %d, want %d sessions",
			st.Submitted, st.Completed, st.Shed, o.Sessions)
	}
	return st, statsDigest(st), arr.samples, nil
}

func statsDigest(st *xprs.ServeStats) string {
	b, err := json.Marshal(st)
	if err != nil {
		panic(err) // ServeStats holds only plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// setupServe checks a short default-seed run, through xprs.RunServe
// and through runServe, against its pinned digest. Every round then
// repeats the measured seed's session, whose digest must not change;
// at the default seed it must also equal the measured shape's pinned
// digest, which is long enough to cover serve-overload's shedding.
func setupServe(sh serveShape, seed int64, observe bool) (bench, error) {
	cfg := benchConfig(observe)
	po := sh.options(serveCatalogSeed)
	po.Sessions = pinnedSessions
	st, err := xprs.RunServe(cfg, po)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sh.name, err)
	}
	if d := statsDigest(st); d != sh.pinned {
		return nil, fmt.Errorf("%s: RunServe default-seed ServeStats digest %s, pinned %s", sh.name, d, sh.pinned)
	}
	if _, d, _, err := runServe(cfg, po); err != nil {
		return nil, fmt.Errorf("%s: %w", sh.name, err)
	} else if d != sh.pinned {
		return nil, fmt.Errorf("%s: default-seed ServeStats digest %s, pinned %s", sh.name, d, sh.pinned)
	}
	o := sh.options(seed)
	if observe {
		// Serving-scale tracing samples queries; tracing every one
		// multiplies the session's wall time many times over.
		o.Adm.TraceSampleOneIn = traceSampleOneIn
	}
	return &serveBench{shape: sh, cfg: cfg, opts: o}, nil
}

func (s *serveBench) round() (roundStats, error) {
	start := time.Now()
	st, d, lat, err := runServe(s.cfg, s.opts)
	el := time.Since(start)
	if err != nil {
		return roundStats{}, fmt.Errorf("%s: %w", s.shape.name, err)
	}
	if s.shape.sheds && st.Shed == 0 {
		return roundStats{}, fmt.Errorf("%s: no session was shed", s.shape.name)
	}
	if s.opts.Seed == serveCatalogSeed && d != s.shape.measured {
		return roundStats{}, fmt.Errorf("%s: default-seed ServeStats digest %s, pinned %s", s.shape.name, d, s.shape.measured)
	}
	if s.stats == nil {
		s.stats = st
	}
	return roundStats{
		attempted: int64(st.Submitted),
		completed: int64(st.Completed),
		failed:    int64(st.Shed),
		busy:      el,
		latencies: lat,
		digest:    d,
	}, nil
}

// replay drives the same arrival schedule as runServe through a
// scheduler session the benchmark owns, timing each SubmitWith, and
// checks that it reproduces the measured session's counts and response
// summary.
func (s *serveBench) replay(l *ledger) error {
	o := s.opts
	if s.stats == nil {
		return fmt.Errorf("serve replay before any round")
	}
	sys := xprs.New(s.cfg)
	cat, err := workload.BuildTenantCatalog(sys.Store(), sys.Params(), workload.TenantMix{
		Tenants: o.Tenants, Templates: o.Templates, Tuples: o.Tuples,
	}, serveCatalogSeed)
	if err != nil {
		return err
	}
	tenants := cat.Tenants()
	rels := make([][]*xprs.Relation, o.Tenants)
	var texts []string
	for t := range rels {
		for j := 0; j < o.Templates; j++ {
			name := fmt.Sprintf("t%02d_q%02d", t, j)
			rel, ok := sys.Relation(name)
			if !ok {
				return fmt.Errorf("serve replay: no relation %s", name)
			}
			rels[t] = append(rels[t], rel)
			texts = append(texts, fmt.Sprintf("select * from %s where a between 0 and %d", name, o.Tuples))
			l.kernels = append(l.kernels, kernelSpec{rels: []*xprs.Relation{rel, rel}, lo: 0, hi: int32(o.Tuples)})
		}
	}
	// The selection templates expressed as SQL, for the planning rows.
	for _, sql := range texts {
		if _, _, err := replayPlan(l, sys, sql); err != nil {
			return fmt.Errorf("serve replay %q: %w", sql, err)
		}
	}

	arr := workload.NewBursty(o.Seed+1, o.Rate, o.Rate*8, 0.05, 0.25)
	rng := rand.New(rand.NewSource(o.Seed + 2))
	nextID := 0
	var completed, shed int
	var responses []time.Duration
	type live struct {
		h     *xprs.QueryHandle
		specs []xprs.TaskSpec
	}
	reap := func(q live) error {
		rep, err := q.h.Wait()
		var se *xprs.ShedError
		switch {
		case errors.As(err, &se):
			shed++
			return nil
		case err != nil:
			return err
		}
		completed++
		responses = append(responses, rep.Elapsed)
		l.addReport(rep, q.specs)
		return nil
	}
	err = sys.Serve(xprs.InterAdj, xprs.SchedOptions{}, o.Adm, func(sc *xprs.Scheduler) error {
		var pending []live
		next := sc.Now()
		for i := 0; i < o.Sessions; i++ {
			sc.SleepUntil(next)
			ten := rng.Intn(o.Tenants)
			rel := rels[ten][rng.Intn(o.Templates)]
			root := &plan.SeqScan{Rel: rel, Filter: expr.ColRange(0, "a", 0, int32(o.Tuples))}
			g, err := plan.Decompose(root)
			if err != nil {
				return err
			}
			ests, err := cost.EstimateGraph(sys.Params(), g)
			if err != nil {
				return err
			}
			specs, err := exec.QueryTasks(g, ests, nextID)
			if err != nil {
				return err
			}
			nextID += len(specs)
			t := time.Now()
			h, err := sc.SubmitWith(xprs.SubmitOptions{Tenant: tenants[ten]}, specs)
			l.span("exec.submit", t, 1)
			if err != nil {
				return err
			}
			pending = append(pending, live{h, specs})
			kept := pending[:0]
			for _, q := range pending {
				if !q.h.Done() {
					kept = append(kept, q)
				} else if err := reap(q); err != nil {
					return err
				}
			}
			pending = kept
			next += arr.Next()
		}
		for _, q := range pending {
			if err := reap(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if completed != s.stats.Completed || shed != s.stats.Shed {
		return fmt.Errorf("serve replay: completed %d shed %d, measured run %d/%d", completed, shed, s.stats.Completed, s.stats.Shed)
	}
	if got := workload.Summarize(responses); !reflect.DeepEqual(got, s.stats.Response) {
		return fmt.Errorf("serve replay: response summary %+v, measured run %+v", got, s.stats.Response)
	}
	return nil
}
