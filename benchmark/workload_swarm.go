package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/corpus"
	"sctbench/internal/explore"
	"sctbench/internal/race"
	"sctbench/internal/report"
	"sctbench/internal/study"
	"sctbench/internal/vthread"
)

// swarmWL is the swarm_corpus workload: each cycle runs a cold swarm into
// a fresh corpus, then the identical sweep warm — replay and write-back
// where the other workloads search.
type swarmWL struct {
	rc      runConfig
	benches []*bench.Benchmark
}

// seeds are the swarm's seed axis: 1..n under every --seed, which only
// permutes the program order. Were the axis drawn from --seed, the
// executions a cold sweep needs would swing by a tenth from seed to seed and
// every ratio per execution would measure the seed.
func (w *swarmWL) seeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

func (w *swarmWL) config(st *corpus.Store, seeds []uint64) study.SwarmConfig {
	return study.SwarmConfig{
		Seeds: seeds, Bounds: w.rc.sz.SwarmBounds, Limit: w.rc.sz.SwarmLimit,
		Parallelism: 1, Workers: 1, Corpus: st,
	}
}

func (w *swarmWL) setUp() error {
	sz := w.rc.sz
	if sz.SwarmPrograms != nil {
		var err error
		if w.benches, err = resolve(sz.SwarmPrograms); err != nil {
			return err
		}
	} else {
		excluded := map[string]bool{}
		for _, n := range sz.SwarmExclude {
			if bench.ByName(n) == nil {
				return fmt.Errorf("unknown benchmark %q", n)
			}
			excluded[n] = true
		}
		w.benches = nil
		for _, b := range bench.All() {
			if !excluded[b.Name] {
				w.benches = append(w.benches, b)
			}
		}
	}
	w.benches = shuffled(w.benches, w.rc.seed)
	for _, b := range w.benches {
		// Benchmark.Hash caches per process, so the corpus key is hashed
		// here, uncached, where every set-up pays for it; the call below
		// then primes the cache the cycles read.
		vthread.ProgramHash(b.New(), b.MaxSteps)
		b.Hash()
	}
	// Warm-up: one cycle over a single seed.
	_, err := w.cycle(nil, w.seeds(1))
	return err
}

// swarmRaw is one cycle's output.
type swarmRaw struct {
	cold, warm       []*study.SwarmCell
	coldCSV, warmCSV string
}

// sweep runs one swarm sweep against the corpus in dir. Untraced it is
// study.RunSwarm; traced it is the same sweep unrolled at its layer
// boundaries.
func (w *swarmWL) sweep(tr *tracer, parent int, name, dir string, seeds []uint64) ([]*study.SwarmCell, string, error) {
	sp := tr.begin(parent, layerHarness, "swarm."+name, "", "")
	defer tr.end(sp, nil)
	s := tr.begin(sp, layerCorpus, "corpus.Open", "", "")
	st, err := corpus.Open(dir)
	if err != nil {
		return nil, "", err
	}
	tr.end(s, map[string]int64{"entries": int64(st.Len())})

	var cells []*study.SwarmCell
	if tr == nil {
		cells = study.RunSwarm(w.benches, w.config(st, seeds))
	} else {
		cells = w.tracedSwarm(tr, sp, st, seeds)
	}
	s = tr.begin(sp, layerReport, "report.SwarmCSV", "", "")
	csv := report.SwarmCSV(cells)
	tr.end(s, map[string]int64{"bytes": int64(len(csv))})
	return cells, csv, nil
}

// tracedSwarm is study.RunSwarm unrolled: per benchmark, per seed one race
// phase, then every (technique, bound) cell, in RunSwarm's order and
// returned in its canonical cell order. The corpus reads, the replays, the
// minimisation and the write-back happen inside explore.Run, below the
// boundary the benchmark can see; the corpus and simplify probes price
// them.
func (w *swarmWL) tracedSwarm(tr *tracer, parent int, st *corpus.Store, seeds []uint64) []*study.SwarmCell {
	sz := w.rc.sz
	var cells []*study.SwarmCell
	for _, b := range w.benches {
		hash := b.Hash()
		for _, seed := range seeds {
			s := tr.begin(parent, layerRace, "race.RunPhase", b.Name, "")
			phase := race.RunPhase(race.PhaseConfig{
				Program: b.New(), Runs: race.DefaultRuns, Seed: seedFor(seed, b.ID, 1),
				MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
			})
			tr.end(s, map[string]int64{"racy": int64(len(phase.Racy))})
			visible := race.Promoted(phase.Racy)
			for _, tech := range studyTechniques {
				bounds := []int{0}
				if tech == explore.IPB || tech == explore.IDB {
					bounds = sz.SwarmBounds
				}
				for _, bound := range bounds {
					s := tr.begin(parent, layerExplore, "explore.Run", b.Name, tech.String())
					res := explore.Run(tech, explore.Config{
						Program: b.New(), Visible: visible, BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps,
						Limit: sz.SwarmLimit, Seed: seedFor(seed, b.ID, 2+uint64(tech)), MaxBound: bound,
						Workers: 1, Corpus: st, ProgramHash: hash,
						Meta: explore.CheckpointMeta{Benchmark: b.Name, Racy: phase.Racy},
					})
					counts := exploreCounts(res)
					counts["corpus_replays"] = int64(res.CorpusReplays)
					counts["corpus_probes"] = int64(res.CorpusProbes)
					tr.end(s, counts)
					cells = append(cells, &study.SwarmCell{Bench: b, Technique: tech, Bound: bound,
						Seed: seed, Racy: len(phase.Racy), Result: res})
				}
			}
		}
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

// cycle is one cold sweep into a fresh corpus plus the identical warm
// sweep over what it left there.
func (w *swarmWL) cycle(tr *tracer, seeds []uint64) (roundResult, error) {
	rr := roundResult{phaseExecs: map[string]int64{}}
	raw := &swarmRaw{}
	t0 := time.Now()
	root := tr.begin(0, layerHarness, "swarm_corpus.cycle", "", "")
	dir, err := os.MkdirTemp(w.rc.workdir, "corpus-")
	if err != nil {
		return rr, err
	}
	defer os.RemoveAll(dir)

	t1 := time.Now()
	if raw.cold, raw.coldCSV, err = w.sweep(tr, root, "cold", dir, seeds); err != nil {
		return rr, err
	}
	rr.opMs = append(rr.opMs, float64(time.Since(t1).Nanoseconds())/1e6)
	t1 = time.Now()
	if raw.warm, raw.warmCSV, err = w.sweep(tr, root, "warm", dir, seeds); err != nil {
		return rr, err
	}
	rr.opMs = append(rr.opMs, float64(time.Since(t1).Nanoseconds())/1e6)
	rr.opKeys = []string{"cold", "warm"}
	tr.end(root, nil)
	rr.wall = time.Since(t0).Seconds()

	for _, c := range raw.cold {
		rr.phaseExecs["cold"] += int64(c.Result.Executions)
	}
	for _, c := range raw.warm {
		rr.phaseExecs["warm"] += int64(c.Result.Executions)
	}
	rr.execs = rr.phaseExecs["cold"] + rr.phaseExecs["warm"]
	rr.counts = map[string]int64{
		"cells": int64(len(raw.cold)), "cold_executions": rr.phaseExecs["cold"], "warm_executions": rr.phaseExecs["warm"],
		"cold_csv_digest": digest(raw.coldCSV), "warm_csv_digest": digest(raw.warmCSV),
	}
	rr.raw = raw
	return rr, nil
}

func (w *swarmWL) round(tr *tracer) (roundResult, error) {
	return w.cycle(tr, w.seeds(w.rc.sz.SwarmSeeds))
}

// verify counts one operation per cell: run cold and warm without a corpus
// error, failing (if at all) the way the benchmark plants, and never
// finding a bug cold only to lose it warm.
func (w *swarmWL) verify(rr *roundResult, c *checker) {
	raw := rr.raw.(*swarmRaw)
	if len(raw.cold) != len(raw.warm) {
		c.op(fmt.Sprintf("swarm: %d cold cells, %d warm cells", len(raw.cold), len(raw.warm)))
		return
	}
	for i, cold := range raw.cold {
		warm := raw.warm[i]
		label := cellLabel(cold)
		var problems []string
		for _, side := range []struct {
			name string
			res  *explore.Result
		}{{"cold", cold.Result}, {"warm", warm.Result}} {
			if side.res == nil {
				problems = append(problems, fmt.Sprintf("%s %s: %s cell was skipped", cold.Bench.Name, label, side.name))
				continue
			}
			if side.res.CorpusError != "" {
				problems = append(problems, fmt.Sprintf("%s %s: %s corpus error: %s", cold.Bench.Name, label, side.name, side.res.CorpusError))
			}
			if side.res.BugFound {
				problems = append(problems, kindProblems(cold.Bench, label+" "+side.name, side.res.Failure.Kind)...)
			}
		}
		if cold.Result != nil && warm.Result != nil && cold.Result.BugFound && !warm.Result.BugFound {
			problems = append(problems, fmt.Sprintf("%s %s: bug found cold, lost warm", cold.Bench.Name, label))
		}
		c.op(problems...)
	}
	if cw, cc := rr.phaseExecs["warm"], rr.phaseExecs["cold"]; cw > cc {
		c.op(fmt.Sprintf("swarm: warm sweep ran %d executions, more than cold's %d", cw, cc))
	}
	// Byte-identical CSVs across cycles ride on the harness's exact-count
	// comparison, through the digests in counts.
}

func cellLabel(c *study.SwarmCell) string {
	return fmt.Sprintf("%s bound=%d seed=%d", c.Technique, c.Bound, c.Seed)
}

// verifyFirst replays every found bug, cold and warm, and holds the cold
// CSV against its pin.
func (w *swarmWL) verifyFirst(rr *roundResult, c *checker) {
	raw := rr.raw.(*swarmRaw)
	// The promoted set a cell searched under is not in the cell; it is
	// recomputed here, once per (program, seed).
	type key struct {
		id   int
		seed uint64
	}
	visibleOf := map[key]func(string) bool{}
	visible := func(cell *study.SwarmCell) func(string) bool {
		k := key{cell.Bench.ID, cell.Seed}
		if v, ok := visibleOf[k]; ok {
			return v
		}
		phase := race.RunPhase(race.PhaseConfig{
			Program: cell.Bench.New(), Runs: race.DefaultRuns, Seed: seedFor(cell.Seed, cell.Bench.ID, 1),
			MaxSteps: cell.Bench.MaxSteps, BoundsCheck: cell.Bench.BoundsCheck,
		})
		visibleOf[k] = race.Promoted(phase.Racy)
		return visibleOf[k]
	}
	for _, side := range []struct {
		name  string
		cells []*study.SwarmCell
	}{{"cold", raw.cold}, {"warm", raw.warm}} {
		for _, cell := range side.cells {
			if cell.Result != nil && cell.Result.BugFound {
				c.op(resultProblems(cell.Bench, cellLabel(cell)+" "+side.name, cell.Result, visible(cell))...)
			}
		}
	}
	if w.rc.sz.Pinned {
		c.op(pinProblems("swarm_cold_seed1.csv", raw.coldCSV)...)
	}
}

// native takes each sweep's fastest time over the cycles; a cycle's wall_s
// is the two together.
func (w *swarmWL) native(rs []roundResult) map[string][]float64 {
	wall := bestSeconds(rs, "")
	return map[string][]float64{
		"wall_s":          {wall},
		"cold_wall_s":     {bestSeconds(rs, "cold")},
		"warm_wall_s":     {bestSeconds(rs, "warm")},
		"execs_per_s":     {float64(rs[0].execs) / wall},
		"allocs_per_exec": {allocsPerExec(rs)},
		"peak_rss_mb":     {peakRSSMB()},
	}
}
