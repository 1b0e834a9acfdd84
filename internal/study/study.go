// Package study implements the experimental pipeline of §5 of the paper:
// for each benchmark, a dynamic race-detection phase chooses the visible
// operations, then iterative preemption bounding (IPB), iterative delay
// bounding (IDB), unbounded depth-first search (DFS), the naive random
// scheduler (Rand) and the Maple-style idiom algorithm (MapleAlg) are run
// with a terminal-schedule limit. The result rows regenerate Table 3 and
// everything derived from it (Table 2, Figures 2–4).
package study

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/corpus"
	"sctbench/internal/explore"
	"sctbench/internal/mapleidiom"
	"sctbench/internal/race"
	"sctbench/internal/vthread"
)

// Config parameterises a study run.
type Config struct {
	// Limit is the terminal-schedule budget per technique per benchmark
	// (the paper uses 10,000). Zero means explore.DefaultLimit.
	Limit int
	// Seed is the base seed; per-benchmark and per-phase seeds derive from
	// it deterministically.
	Seed uint64
	// RaceRuns is the number of race-detection executions (0 = 10, as in
	// the paper).
	RaceRuns int
	// Techniques restricts which techniques run (nil = the four
	// systematic/random phases of the paper: IPB, IDB, DFS, Rand). Append
	// explore.DPOR to also run the partial-order-reduction extension; its
	// reduction counters land in the Table 3 CSV columns.
	Techniques []explore.Technique
	// WithMaple additionally runs the Maple-style idiom algorithm.
	WithMaple bool
	// Parallelism bounds concurrent benchmark evaluations (0 = GOMAXPROCS).
	Parallelism int
	// Workers is the per-exploration worker count passed to
	// explore.Config.Workers (0 or 1 = sequential exploration). Benchmark-
	// level parallelism (Parallelism) and schedule-space parallelism
	// (Workers) compose; the Go scheduler multiplexes both onto GOMAXPROCS
	// threads, so Workers mainly shortens the tail of the slowest
	// benchmarks.
	Workers int
	// Progress, when non-nil, receives one line per completed phase.
	Progress func(format string, args ...any)
	// Debug forwards the engine switch to every exploration this study
	// creates. The zero value is the production configuration: compiled
	// benchmarks on the flat engine; set NoFlatEngine to force the
	// goroutine reference engine for an A/B run.
	Debug vthread.Debug
	// Interrupt, when non-nil, truncates the study when it is closed: rows
	// not yet started are skipped, rows in flight finish dirty and are
	// discarded (see RunStudy).
	Interrupt <-chan struct{}
	// Deadline, when nonzero, truncates the study at that wall-clock time,
	// same semantics as Interrupt.
	Deadline time.Time
	// CheckpointPath, when nonempty, is where a truncated RunStudy saves
	// its completed rows for a later resume.
	CheckpointPath string
	// Corpus, when non-nil, makes every exploration replay-first against
	// the schedule corpus (keyed by each benchmark's content hash) and
	// writes every fresh witness back. See internal/corpus.
	Corpus *corpus.Store
}

func (c Config) withDefaults() Config {
	if c.Limit == 0 {
		c.Limit = explore.DefaultLimit
	}
	if c.RaceRuns == 0 {
		c.RaceRuns = race.DefaultRuns
	}
	if c.Techniques == nil {
		c.Techniques = []explore.Technique{explore.IPB, explore.IDB, explore.DFS, explore.Rand}
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// Row is one Table 3 row: everything measured for one benchmark.
type Row struct {
	Bench *bench.Benchmark
	// Racy is the promoted variable set from the detection phase.
	Racy []string
	// RaceBugsSeen counts detection runs that exposed the bug (context for
	// Table 2's "trivial" classification).
	RaceBugsSeen int
	// Results maps technique → exploration result. Present techniques only.
	Results map[explore.Technique]*explore.Result
	// Maple is the MapleAlg result (nil unless Config.WithMaple).
	Maple *mapleidiom.Result
}

// Found reports whether the given technique found the bug.
func (r *Row) Found(t explore.Technique) bool {
	res := r.Results[t]
	return res != nil && res.BugFound
}

// Truncated reports that an interrupt or deadline cut one of this row's
// explorations short, so its counts do not represent the full pipeline
// and the row must be re-run rather than carried into a resumed study.
func (r *Row) Truncated() bool {
	for _, res := range r.Results {
		if res.Stopped == explore.StopDeadline || res.Stopped == explore.StopInterrupted {
			return true
		}
	}
	return false
}

// MaxEnabled and MaxSchedPoints aggregate the per-technique statistics,
// matching the Table 3 columns (max over all runs of the benchmark).
func (r *Row) MaxEnabled() int {
	m := 0
	for _, res := range r.Results {
		if res.MaxEnabled > m {
			m = res.MaxEnabled
		}
	}
	return m
}

// MaxSchedPoints returns the maximum number of contested scheduling points
// observed across all systematic runs.
func (r *Row) MaxSchedPoints() int {
	m := 0
	for _, res := range r.Results {
		if res.MaxSchedPoints > m {
			m = res.MaxSchedPoints
		}
	}
	return m
}

// Threads returns the maximum thread count observed.
func (r *Row) Threads() int {
	m := 0
	for _, res := range r.Results {
		if res.Threads > m {
			m = res.Threads
		}
	}
	return m
}

// seedFor derives a stable per-benchmark, per-phase seed.
func seedFor(base uint64, benchID int, phase uint64) uint64 {
	x := base ^ (uint64(benchID+1) * 0x9e3779b97f4a7c15) ^ (phase * 0xbf58476d1ce4e5b9)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// RunBenchmark runs the full §5 pipeline on one benchmark.
func RunBenchmark(b *bench.Benchmark, cfg Config) *Row {
	cfg = cfg.withDefaults()
	row := &Row{Bench: b, Results: make(map[explore.Technique]*explore.Result)}

	// Phase 1: data race detection (10 uncontrolled runs, all accesses
	// visible).
	phase := race.RunPhase(race.PhaseConfig{
		Program:     b.New(),
		Runs:        cfg.RaceRuns,
		Seed:        seedFor(cfg.Seed, b.ID, 1),
		MaxSteps:    b.MaxSteps,
		BoundsCheck: b.BoundsCheck,
	})
	row.Racy = phase.Racy
	row.RaceBugsSeen = phase.BugsSeen
	visible := race.Promoted(phase.Racy)
	if cfg.Progress != nil {
		cfg.Progress("%s: race phase done, %d racy vars", b.Name, len(phase.Racy))
	}

	// Phases 2–5: the exploration techniques, sharing the promoted set.
	hash := ""
	if cfg.Corpus != nil {
		hash = b.Hash()
	}
	for _, tech := range cfg.Techniques {
		res := explore.Run(tech, explore.Config{
			Program:     b.New(),
			Visible:     visible,
			BoundsCheck: b.BoundsCheck,
			MaxSteps:    b.MaxSteps,
			Limit:       cfg.Limit,
			Seed:        seedFor(cfg.Seed, b.ID, 2+uint64(tech)),
			Workers:     cfg.Workers,
			Debug:       cfg.Debug,
			Interrupt:   cfg.Interrupt,
			Deadline:    cfg.Deadline,
			Corpus:      cfg.Corpus,
			ProgramHash: hash,
			Meta:        explore.CheckpointMeta{Benchmark: b.Name, Racy: phase.Racy},
		})
		row.Results[tech] = res
		if cfg.Progress != nil {
			cfg.Progress("%s: %s done (bug=%v bound=%d first=%d total=%d)",
				b.Name, tech, res.BugFound, res.Bound, res.SchedulesToFirstBug, res.Schedules)
		}
	}

	// Phase 6: the Maple-style idiom algorithm.
	if cfg.WithMaple {
		row.Maple = mapleidiom.Run(mapleidiom.Config{
			Program:     b.New,
			Visible:     visible,
			BoundsCheck: b.BoundsCheck,
			MaxSteps:    b.MaxSteps,
			Seed:        seedFor(cfg.Seed, b.ID, 99),
		})
		if cfg.Progress != nil {
			cfg.Progress("%s: MapleAlg done (bug=%v schedules=%d)",
				b.Name, row.Maple.BugFound, row.Maple.Schedules)
		}
	}
	return row
}

// RunAll evaluates the pipeline over the given benchmarks (all of SCTBench
// when benches is nil), parallelising across benchmarks. Rows come back in
// Table 3 (id) order. Truncated rows (possible only when cfg carries an
// Interrupt or Deadline) are dropped; use RunStudy to also learn whether
// the run was cut short and to checkpoint/resume it.
func RunAll(benches []*bench.Benchmark, cfg Config) []*Row {
	rows, _, err := RunStudy(benches, cfg, nil)
	if err != nil {
		// Unreachable without a prior checkpoint; keep the legacy
		// signature honest anyway.
		panic(err)
	}
	return rows
}

// stopRequested reports whether a study or sweep should start no further
// work: the interrupt channel (nil = none) is closed, or the deadline (zero
// = none) has passed.
func stopRequested(interrupt <-chan struct{}, deadline time.Time) bool {
	if interrupt != nil {
		select {
		case <-interrupt:
			return true
		default:
		}
	}
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// RunStudy is RunAll with crash safety: rows already completed in a prior
// checkpoint are carried over verbatim instead of re-run, and when
// cfg.Interrupt fires or cfg.Deadline passes, benchmarks not yet started
// are skipped, in-flight rows finish dirty and are discarded, and the
// cleanly completed rows are saved to cfg.CheckpointPath. Because every
// row is deterministic given the study seed, the union of carried-over
// and freshly run rows is exactly what one uninterrupted run produces —
// truncation never changes a row, it only defers it.
//
// The returned rows are the completed ones, in benches order; truncated
// reports whether any were deferred. A prior checkpoint from a different
// configuration (limit, seed, technique set) is an error.
func RunStudy(benches []*bench.Benchmark, cfg Config, prior *Checkpoint) (rows []*Row, truncated bool, err error) {
	cfg = cfg.withDefaults()
	if benches == nil {
		benches = bench.All()
	}

	done := make(map[string]*Row)
	if prior != nil {
		if err := prior.matches(cfg); err != nil {
			return nil, false, err
		}
		for i := range prior.Rows {
			if row := prior.Rows[i].row(); row != nil {
				done[row.Bench.Name] = row
			}
		}
	}

	all := make([]*Row, len(benches))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Parallelism)
	for i, b := range benches {
		if row := done[b.Name]; row != nil {
			all[i] = row
			continue
		}
		wg.Add(1)
		go func(i int, b *bench.Benchmark) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if stopRequested(cfg.Interrupt, cfg.Deadline) {
				return // skipped: deferred to the resumed run
			}
			row := RunBenchmark(b, cfg)
			if !row.Truncated() {
				all[i] = row
			}
		}(i, b)
	}
	wg.Wait()

	for _, row := range all {
		if row != nil {
			rows = append(rows, row)
		}
	}
	truncated = len(rows) < len(benches)
	if truncated && cfg.CheckpointPath != "" {
		if err := newCheckpoint(cfg, rows).Save(cfg.CheckpointPath); err != nil {
			return rows, true, err
		}
	}
	return rows, truncated, nil
}

// Sanity verifies registry invariants the study depends on: the 52 paper
// benchmarks in ids 0-51, extension families (GoIdiom, GoTime) only above
// them, and contiguous ids throughout. It returns an error description
// or "".
func Sanity() string {
	all := bench.All()
	if len(all) < 52 {
		return fmt.Sprintf("registry has %d benchmarks, want at least the 52 SCTBench rows", len(all))
	}
	for i, b := range all {
		if b.ID != i {
			return fmt.Sprintf("benchmark ids not contiguous at %d (%s)", i, b.Name)
		}
		if i < 52 && (b.Suite == "GoIdiom" || b.Suite == "GoTime") {
			return fmt.Sprintf("extension benchmark %s occupies paper row %d", b.Name, i)
		}
	}
	return ""
}
