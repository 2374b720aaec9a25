// Command perfbench is the repository's wall-clock benchmark. One
// invocation runs one workload in this process, checks every answer
// against an oracle the benchmark computes itself, and prints its
// metrics as the last line of standard output:
//
//	perfbench -workload join-agg -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with
// tracing off. With -trace 1 it runs the workload untraced and then
// traced (Config.Observe on, under a CPU profile), replays each layer's
// public entry points over the workload's own inputs, and reports the
// per-layer ledger. README.md lists the workloads, the metrics and the
// end-to-end metric each ledger row should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundStats is what one round of a workload did.
type roundStats struct {
	attempted, completed, failed int64
	// busy is the wall time spent inside the system's calls; the
	// benchmark's own answer checks run outside it.
	busy time.Duration
	// latencies holds the wall time of each call. Open-loop response
	// times are virtual (checked by digest, not timed), so an open-loop
	// round contributes its wall time per session over each chunk of
	// arrivals instead.
	latencies []time.Duration
	// planHits counts calls served from the plan cache.
	planHits int64
	// digest identifies the round's answers and virtual statistics; the
	// traced and untraced passes must produce the same digests.
	digest string
}

// bench is one set-up instance of a workload.
type bench interface {
	// round runs one unit of the workload and checks its answers.
	round() (roundStats, error)
	// replay re-runs the workload's calls into each layer for the
	// per-layer ledger.
	replay(l *ledger) error
}

// workloadDef sets up a bench for a seed. observe turns Config.Observe
// on for the traced pass.
type workloadDef struct {
	name  string
	setup func(seed int64, observe bool) (bench, error)
	// roundTime is the wall time of one round on the reference host
	// (2 vCPUs, GOMAXPROCS 2). A run measures a fixed number of rounds,
	// -seconds over roundTime, so that every run of a seed attempts the
	// same queries and its failed count is exact; on that host the
	// rounds take about -seconds.
	roundTime time.Duration
}

var workloads = []workloadDef{
	{"join-agg", setupJoinAgg, 200 * time.Millisecond},
	{"adhoc-join", setupAdhoc, 3500 * time.Millisecond},
	{"serve-steady", func(seed int64, observe bool) (bench, error) {
		return setupServe(serveSteady, seed, observe)
	}, 500 * time.Millisecond},
	{"serve-overload", func(seed int64, observe bool) (bench, error) {
		return setupServe(serveOverload, seed, observe)
	}, 3 * time.Second},
}

// rounds is the number of rounds that measure about d on the reference
// host, and at least two.
func (w *workloadDef) rounds(d time.Duration) int {
	return max(2, int(math.Ceil(float64(d)/float64(w.roundTime))))
}

// setupReps is how many times a run sets its workload up; setup_s is
// their median.
const setupReps = 7

func main() {
	name := flag.String("workload", "", "workload: join-agg, adhoc-join, serve-steady, serve-overload")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds on the reference host (sets the number of rounds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, trace int) error {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if d <= 0 {
		return errors.New("-seconds must be positive")
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	host := hostRecord()
	host["workload"] = name
	host["seed"] = seed
	hb, _ := json.Marshal(host)
	fmt.Println("host", string(hb))

	var res *result
	var err error
	if trace == 0 {
		res, err = endToEnd(def, seed, d)
	} else {
		res, err = perLayer(def, seed, d)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// passStats accumulates the rounds of one measured pass.
type passStats struct {
	roundStats
	// digests holds each round's digest in order.
	digests []string
}

// measure runs n rounds. The system's virtual state carries over from round to round (the disk
// heads, for one), so the first round may differ from the rest, but
// from the second on every round repeats the same history and must
// produce the same digest.
func measure(b bench, n int) (passStats, error) {
	var p passStats
	for len(p.digests) < n {
		rs, err := b.round()
		if err != nil {
			return p, err
		}
		if n := len(p.digests); n >= 2 && rs.digest != p.digests[1] {
			return p, fmt.Errorf("round %d: answers or virtual statistics differ from round 1's (%s vs %s)", n, rs.digest, p.digests[1])
		}
		p.attempted += rs.attempted
		p.completed += rs.completed
		p.failed += rs.failed
		p.busy += rs.busy
		p.planHits += rs.planHits
		p.latencies = append(p.latencies, rs.latencies...)
		p.digests = append(p.digests, rs.digest)
	}
	return p, nil
}

// setupTimed sets the workload up setupReps times and returns the last
// instance with the median set-up time.
func setupTimed(def *workloadDef, seed int64) (bench, float64, error) {
	var b bench
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		b = nil
		runtime.GC()
		start := time.Now()
		nb, err := def.setup(seed, false)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		b = nb
	}
	return b, median(times), nil
}

func endToEnd(def *workloadDef, seed int64, d time.Duration) (*result, error) {
	b, setupS, err := setupTimed(def, seed)
	if err != nil {
		return nil, err
	}
	// Return the discarded set-ups' pages to the OS, so that the peak
	// is the measured rounds' and not the benchmark's residue.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	p, err := measure(b, def.rounds(d))
	peak := rss.stop()
	if err != nil {
		return nil, err
	}
	if p.completed == 0 {
		return nil, errors.New("no query completed")
	}
	if peak == 0 {
		return nil, errors.New("resident set size unavailable (/proc/self/statm)")
	}
	m := map[string]metric{
		"setup_s":        {setupS, "s"},
		"throughput_qps": {float64(p.completed) / p.busy.Seconds(), "1/s"},
		"answered_frac":  {float64(p.completed) / float64(p.attempted), "frac"},
		"peak_rss_mb":    {peak, "MB"},
	}
	ms := make([]float64, len(p.latencies))
	for i, l := range p.latencies {
		ms[i] = float64(l.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	m["latency_p50_ms"] = metric{quantile(ms, 0.50), "ms"}
	m["latency_p95_ms"] = metric{quantile(ms, 0.95), "ms"}
	return &result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile is the nearest-rank quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q * float64(len(sorted))))
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}
