package study

// Swarm sampling: the technique × bound × seed sweep behind `sctbench
// -swarm`. Where RunStudy evaluates the paper's fixed pipeline once per
// benchmark, RunSwarm covers a grid of configurations — every technique at
// every requested iterative bound under every seed — and (optionally)
// funnels every witness found into a shared schedule corpus, so later runs
// replay-first instead of searching cold.
//
// Determinism contract: the swarm's output is a pure function of
// (benchmarks, SwarmConfig seeds/bounds/techniques/limit) — repeated runs
// with the same inputs produce identical cells, byte-for-byte identical
// CSV. Two design points make that hold even with a live corpus:
//
//   - Parallelism is per benchmark only. Corpus entries are keyed by the
//     program's content hash, which is unique per benchmark, so
//     concurrently running benchmarks never touch the same entry.
//   - Within one benchmark, cells run in a fixed seed → technique → bound
//     order, so the sequence of corpus reads and writes for that entry is
//     deterministic.
//
// (Byte-identical CSV across *separate* swarm invocations additionally
// requires starting from the same corpus state — the CI smoke uses a fresh
// corpus dir per run.)

import (
	"runtime"
	"sort"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/corpus"
	"sctbench/internal/explore"
	"sctbench/internal/race"
)

// SwarmConfig parameterises a swarm sweep.
type SwarmConfig struct {
	// Techniques to sweep (nil = the four study phases: IPB, IDB, DFS,
	// Rand).
	Techniques []explore.Technique
	// Bounds is the iterative-bound sweep axis, applied to the bounded
	// techniques (IPB, IDB) as explore.Config.MaxBound. Unbounded
	// techniques ignore the axis and run one cell per seed at bound 0.
	// Nil means {0} (the explore default cap).
	Bounds []int
	// Seeds is the seed axis; every cell's race phase and exploration
	// seeds derive from its entry. Nil means {1, 2, 3, 4, 5}.
	Seeds []uint64
	// Limit is the terminal-schedule budget per cell (0 = explore.DefaultLimit).
	Limit int
	// RaceRuns is the per-(benchmark, seed) race-detection run count
	// (0 = race.DefaultRuns).
	RaceRuns int
	// Parallelism bounds concurrent benchmark evaluations (0 = GOMAXPROCS).
	// Cells of one benchmark always run sequentially; see the determinism
	// contract above.
	Parallelism int
	// Workers is the per-exploration worker count (explore.Config.Workers).
	Workers int
	// Interrupt and Deadline truncate the sweep: benchmarks not yet
	// started are skipped (their cells carry a nil Result), benchmarks in
	// flight finish their current cell dirty and skip the rest.
	Interrupt <-chan struct{}
	Deadline  time.Time
	// Corpus, when non-nil, turns every cell replay-first: stored
	// witnesses are replayed before the search and every fresh witness is
	// minimised and written back under the benchmark's content hash.
	Corpus *corpus.Store
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(format string, args ...any)
}

func (c SwarmConfig) withDefaults() SwarmConfig {
	if c.Techniques == nil {
		c.Techniques = []explore.Technique{explore.IPB, explore.IDB, explore.DFS, explore.Rand}
	}
	if c.Bounds == nil {
		c.Bounds = []int{0}
	}
	if c.Seeds == nil {
		c.Seeds = []uint64{1, 2, 3, 4, 5}
	}
	if c.Limit == 0 {
		c.Limit = explore.DefaultLimit
	}
	if c.RaceRuns == 0 {
		c.RaceRuns = race.DefaultRuns
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// SwarmCell is one point of the sweep grid: one benchmark under one
// technique, bound and seed.
type SwarmCell struct {
	Bench     *bench.Benchmark
	Technique explore.Technique
	// Bound is the MaxBound cap this cell ran under (0 = explore default;
	// always 0 for the unbounded techniques).
	Bound int
	// Seed is the sweep-axis seed; the cell's race-phase and exploration
	// seeds derive from it via seedFor.
	Seed uint64
	// Racy is the promoted-variable count of the cell's race phase.
	Racy int
	// Result is the exploration outcome, nil when the cell was skipped by
	// an interrupt or deadline before it started.
	Result *explore.Result
}

// bounded reports whether the technique consumes the bound axis.
func bounded(t explore.Technique) bool {
	return t == explore.IPB || t == explore.IDB
}

// cellBounds returns the bound axis for one technique: the configured
// sweep for bounded techniques, the single default cell otherwise.
func cellBounds(t explore.Technique, bounds []int) []int {
	if bounded(t) {
		return bounds
	}
	return []int{0}
}

// RunSwarm sweeps the grid over the given benchmarks (all of SCTBench when
// benches is nil). Cells come back in canonical (benchmark id, technique,
// bound, seed) order — the CSV row order — regardless of execution order.
func RunSwarm(benches []*bench.Benchmark, cfg SwarmConfig) []*SwarmCell {
	cfg = cfg.withDefaults()
	if benches == nil {
		benches = bench.All()
	}

	perBench := make([][]*SwarmCell, len(benches))
	sem := make(chan struct{}, cfg.Parallelism)
	done := make(chan struct{})
	for i, b := range benches {
		go func(i int, b *bench.Benchmark) {
			defer func() { done <- struct{}{} }()
			sem <- struct{}{}
			defer func() { <-sem }()
			perBench[i] = runSwarmBench(b, cfg)
		}(i, b)
	}
	for range benches {
		<-done
	}

	var cells []*SwarmCell
	for _, bc := range perBench {
		cells = append(cells, bc...)
	}
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Bench.ID != b.Bench.ID {
			return a.Bench.ID < b.Bench.ID
		}
		if a.Technique != b.Technique {
			return a.Technique < b.Technique
		}
		if a.Bound != b.Bound {
			return a.Bound < b.Bound
		}
		return a.Seed < b.Seed
	})
	return cells
}

// runSwarmBench runs every cell of one benchmark, sequentially, in the
// fixed seed → technique → bound order the determinism contract pins.
func runSwarmBench(b *bench.Benchmark, cfg SwarmConfig) []*SwarmCell {
	hash := ""
	if cfg.Corpus != nil {
		hash = b.Hash()
	}
	var cells []*SwarmCell
	for _, seed := range cfg.Seeds {
		if stopRequested(cfg.Interrupt, cfg.Deadline) {
			// Skipped seeds still contribute their grid cells, so the
			// caller can see exactly what a truncated sweep deferred.
			for _, tech := range cfg.Techniques {
				for _, bound := range cellBounds(tech, cfg.Bounds) {
					cells = append(cells, &SwarmCell{Bench: b, Technique: tech, Bound: bound, Seed: seed})
				}
			}
			continue
		}

		// One race phase per (benchmark, seed): the seed axis reshuffles
		// the detection runs, so the promoted set — and through it even the
		// deterministic techniques — genuinely varies across the axis.
		phase := race.RunPhase(race.PhaseConfig{
			Program:     b.New(),
			Runs:        cfg.RaceRuns,
			Seed:        seedFor(seed, b.ID, 1),
			MaxSteps:    b.MaxSteps,
			BoundsCheck: b.BoundsCheck,
		})
		visible := race.Promoted(phase.Racy)

		for _, tech := range cfg.Techniques {
			for _, bound := range cellBounds(tech, cfg.Bounds) {
				cell := &SwarmCell{Bench: b, Technique: tech, Bound: bound, Seed: seed, Racy: len(phase.Racy)}
				if stopRequested(cfg.Interrupt, cfg.Deadline) {
					cells = append(cells, cell)
					continue
				}
				cell.Result = explore.Run(tech, explore.Config{
					Program:     b.New(),
					Visible:     visible,
					BoundsCheck: b.BoundsCheck,
					MaxSteps:    b.MaxSteps,
					Limit:       cfg.Limit,
					Seed:        seedFor(seed, b.ID, 2+uint64(tech)),
					MaxBound:    bound,
					Workers:     cfg.Workers,
					Interrupt:   cfg.Interrupt,
					Deadline:    cfg.Deadline,
					Corpus:      cfg.Corpus,
					ProgramHash: hash,
					Meta:        explore.CheckpointMeta{Benchmark: b.Name, Racy: phase.Racy},
				})
				cells = append(cells, cell)
				if cfg.Progress != nil {
					r := cell.Result
					cfg.Progress("%s: %s bound=%d seed=%d done (bug=%v first=%d execs=%d hit=%v)",
						b.Name, tech, bound, seed, r.BugFound, r.SchedulesToFirstBug, r.Executions, r.CorpusHit)
				}
			}
		}
	}
	return cells
}
