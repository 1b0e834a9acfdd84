package main

import (
	"fmt"
	"strings"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/mapleidiom"
	"sctbench/internal/race"
	"sctbench/internal/report"
	"sctbench/internal/study"
)

// studyTechniques is the paper's pipeline order, as study.RunAll runs it.
var studyTechniques = []explore.Technique{explore.IPB, explore.IDB, explore.DFS, explore.Rand}

// seedFor mirrors study's unexported per-benchmark, per-phase seed
// derivation, so the traced pass — which drives race, explore and
// mapleidiom directly — searches under exactly the seeds study.RunAll
// uses. The traced/untraced count comparison fails if the two ever part.
func seedFor(base uint64, benchID int, phase uint64) uint64 {
	x := base ^ (uint64(benchID+1) * 0x9e3779b97f4a7c15) ^ (phase * 0xbf58476d1ce4e5b9)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// exploreCounts are the counts recorded on every exploration span.
func exploreCounts(r *explore.Result) map[string]int64 {
	return map[string]int64{
		"executions": int64(r.Executions), "schedules": int64(r.Schedules),
		"steps": r.TotalSteps, "aborted": int64(r.AbortedExecutions),
		"branches_pruned": int64(r.BranchesPruned),
	}
}

// studyWL is the study_registry workload: the paper's headline run.
type studyWL struct {
	rc      runConfig
	benches []*bench.Benchmark
}

func (w *studyWL) config(limit int, progress func(string, ...any)) study.Config {
	return study.Config{
		Limit: limit, Seed: w.rc.seed, RaceRuns: w.rc.sz.StudyRaceRuns, WithMaple: true,
		Parallelism: 1, Workers: 1, Progress: progress,
	}
}

func (w *studyWL) setUp() error {
	w.benches = bench.All()
	if names := w.rc.sz.StudyPrograms; names != nil {
		var err error
		if w.benches, err = resolve(names); err != nil {
			return err
		}
	}
	for _, b := range w.benches {
		b.New()
	}
	rows := study.RunAll(w.benches, w.config(w.rc.sz.StudyWarmLimit, nil))
	if len(rows) != len(w.benches) {
		return fmt.Errorf("warm-up pass returned %d rows for %d programs", len(rows), len(w.benches))
	}
	report.Table3CSV(rows)
	return nil
}

// studyRaw is one pass's output.
type studyRaw struct {
	rows []*study.Row
	csv  string
}

func (w *studyWL) round(tr *tracer) (roundResult, error) {
	rr := roundResult{}
	raw := &studyRaw{}
	t0 := time.Now()
	if tr == nil {
		// An operation is one phase of one program: the gap between
		// consecutive progress callbacks (one program runs at a time, in no
		// fixed order). A cell is a (program, technique) phase; the race
		// phase and the report are operations too, so that the operations
		// add up to the pass.
		last := t0
		op := func(key string) {
			now := time.Now()
			rr.opMs = append(rr.opMs, float64(now.Sub(last).Nanoseconds())/1e6)
			rr.opKeys = append(rr.opKeys, key)
			last = now
		}
		progress := func(format string, args ...any) {
			switch name := fmt.Sprint(args[0]); {
			case strings.Contains(format, "race phase"):
				op("race/" + name)
			case strings.Contains(format, "MapleAlg"):
				op("cell/" + name + "/MapleAlg")
			default:
				op("cell/" + name + "/" + fmt.Sprint(args[1]))
			}
		}
		raw.rows = study.RunAll(w.benches, w.config(w.rc.sz.StudyLimit, progress))
		raw.csv = report.Table3CSV(raw.rows)
		op("report/Table3CSV")
	} else {
		w.tracedPass(tr, raw)
	}
	rr.wall = time.Since(t0).Seconds()

	var execs, scheds int64
	for _, row := range raw.rows {
		for _, res := range row.Results {
			execs += int64(res.Executions)
			scheds += int64(res.Schedules)
		}
	}
	rr.execs = execs
	rr.counts = map[string]int64{
		"rows": int64(len(raw.rows)), "executions": execs, "schedules": scheds,
		"table3_csv_bytes": int64(len(raw.csv)), "table3_csv_digest": digest(raw.csv),
	}
	rr.raw = raw
	return rr, nil
}

// tracedPass is study.RunBenchmark unrolled at its layer boundaries: the
// same calls with the same configurations, each inside a span.
func (w *studyWL) tracedPass(tr *tracer, raw *studyRaw) {
	sz := w.rc.sz
	root := tr.begin(0, layerHarness, "study_registry.pass", "", "")
	for _, b := range w.benches {
		rowSpan := tr.begin(root, layerHarness, "study.row", b.Name, "")
		row := &study.Row{Bench: b, Results: make(map[explore.Technique]*explore.Result)}

		s := tr.begin(rowSpan, layerRace, "race.RunPhase", b.Name, "")
		phase := race.RunPhase(race.PhaseConfig{
			Program: b.New(), Runs: sz.StudyRaceRuns, Seed: seedFor(w.rc.seed, b.ID, 1),
			MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
		})
		tr.end(s, map[string]int64{"runs": int64(sz.StudyRaceRuns), "racy": int64(len(phase.Racy))})
		row.Racy, row.RaceBugsSeen = phase.Racy, phase.BugsSeen
		visible := race.Promoted(phase.Racy)

		for _, tech := range studyTechniques {
			s := tr.begin(rowSpan, layerExplore, "explore.Run", b.Name, tech.String())
			res := explore.Run(tech, explore.Config{
				Program: b.New(), Visible: visible, BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps,
				Limit: sz.StudyLimit, Seed: seedFor(w.rc.seed, b.ID, 2+uint64(tech)), Workers: 1,
				Meta: explore.CheckpointMeta{Benchmark: b.Name, Racy: phase.Racy},
			})
			tr.end(s, exploreCounts(res))
			row.Results[tech] = res
		}

		s = tr.begin(rowSpan, layerMaple, "mapleidiom.Run", b.Name, "MapleAlg")
		row.Maple = mapleidiom.Run(mapleidiom.Config{
			Program: b.New, Visible: visible, BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps,
			Seed: seedFor(w.rc.seed, b.ID, 99),
		})
		tr.end(s, map[string]int64{"schedules": int64(row.Maple.Schedules)})

		raw.rows = append(raw.rows, row)
		tr.end(rowSpan, nil)
	}
	s := tr.begin(root, layerReport, "report.Table3CSV", "", "")
	raw.csv = report.Table3CSV(raw.rows)
	tr.end(s, map[string]int64{"bytes": int64(len(raw.csv))})
	tr.end(root, nil)
}

// verify counts one operation per cell: it must have produced a result.
func (w *studyWL) verify(rr *roundResult, c *checker) {
	raw := rr.raw.(*studyRaw)
	if len(raw.rows) != len(w.benches) {
		c.op(fmt.Sprintf("study pass returned %d rows for %d programs", len(raw.rows), len(w.benches)))
		return
	}
	for _, row := range raw.rows {
		for _, tech := range studyTechniques {
			if row.Results[tech] == nil {
				c.op(fmt.Sprintf("%s %s: no result", row.Bench.Name, tech))
				continue
			}
			c.op()
		}
		if row.Maple == nil {
			c.op(fmt.Sprintf("%s MapleAlg: no result", row.Bench.Name))
			continue
		}
		c.op()
	}
}

// verifyFirst replays every found bug and holds the CSV against its pin.
func (w *studyWL) verifyFirst(rr *roundResult, c *checker) {
	raw := rr.raw.(*studyRaw)
	for _, row := range raw.rows {
		visible := race.Promoted(row.Racy)
		for _, tech := range studyTechniques {
			if res := row.Results[tech]; res != nil && res.BugFound {
				c.op(resultProblems(row.Bench, tech.String(), res, visible)...)
			}
		}
		if row.Maple != nil && row.Maple.BugFound {
			c.op(bugProblems(row.Bench, "MapleAlg", row.Maple.Failure, row.Maple.Witness, visible)...)
		}
	}
	if w.rc.seed == 1 && w.rc.sz.Pinned {
		c.op(pinProblems("study_table3_seed1.csv", raw.csv)...)
	}
}

// native takes every operation's fastest time over the passes: wall_s is
// their sum and the cell percentiles are over the 320 cells' times. It leaves
// peak_rss_mb out: a pass's peak swings between 20 and 32 MB with the seed
// and with which allocation bursts (every explore.Run starts with one) fall
// inside a GC cycle, more than any bound could cover.
func (w *studyWL) native(rs []roundResult) map[string][]float64 {
	wall := bestSeconds(rs, "")
	cells := bestOps(rs, "cell/")
	return map[string][]float64{
		"wall_s":          {wall},
		"execs_per_s":     {float64(rs[0].execs) / wall},
		"allocs_per_exec": {allocsPerExec(rs)},
		"cell_ms_p50":     {percentile(cells, 50)},
		"cell_ms_p95":     {percentile(cells, 95)},
		"cell_ms":         cells,
	}
}
