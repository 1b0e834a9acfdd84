// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus ablations for the design choices DESIGN.md §8
// calls out. The table/figure benches run the real study pipeline at a
// reduced schedule limit per iteration (the full 10,000-schedule study is
// cmd/sctbench's job; a testing.B iteration must be repeatable in
// milliseconds-to-seconds). Regenerating the paper's numbers:
//
//	go run ./cmd/sctbench -limit 10000 -maple
package sctbench

import (
	"fmt"
	"runtime"
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/mapleidiom"
	"sctbench/internal/pct"
	"sctbench/internal/race"
	"sctbench/internal/report"
	"sctbench/internal/study"
	"sctbench/internal/vthread"
)

// benchLimit is the per-iteration schedule budget for table benches.
const benchLimit = 100

// smallSuite is a representative cross-section: one trivial, one
// bounded-bug, one barrier, one starvation benchmark.
func smallSuite() []*bench.Benchmark {
	names := []string{
		"CS.account_bad",
		"CS.reorder_3_bad",
		"splash2.lu",
		"chess.WSQ",
	}
	out := make([]*bench.Benchmark, 0, len(names))
	for _, n := range names {
		b := bench.ByName(n)
		if b == nil {
			panic("missing benchmark " + n)
		}
		out = append(out, b)
	}
	return out
}

// BenchmarkTable1 regenerates the suite-overview table (static metadata;
// the benchmark measures registry traversal and table construction).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1()
		if len(rows) != 8 {
			b.Fatalf("Table 1 has %d suites, want 8", len(rows))
		}
	}
}

// BenchmarkTable2 regenerates the trivial-benchmark properties from a
// study pass over the small suite.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := study.RunAll(smallSuite(), study.Config{Limit: benchLimit, Seed: 1, RaceRuns: 3, Parallelism: 1})
		if report.Table2(rows, benchLimit) == "" {
			b.Fatal("empty Table 2")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 rows, one sub-benchmark per
// technique over the small suite.
func BenchmarkTable3(b *testing.B) {
	techs := map[string][]explore.Technique{
		"IPB":  {explore.IPB},
		"IDB":  {explore.IDB},
		"DFS":  {explore.DFS},
		"Rand": {explore.Rand},
	}
	for name, ts := range techs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := study.RunAll(smallSuite(), study.Config{
					Limit: benchLimit, Seed: 1, RaceRuns: 3,
					Techniques: ts, Parallelism: 1,
				})
				if report.Table3(rows, benchLimit) == "" {
					b.Fatal("empty Table 3")
				}
			}
		})
	}
}

// BenchmarkFig2Venn regenerates both Figure 2 Venn diagrams.
func BenchmarkFig2Venn(b *testing.B) {
	rows := study.RunAll(smallSuite(), study.Config{Limit: benchLimit, Seed: 1, RaceRuns: 3, WithMaple: true, Parallelism: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := report.VennSystematic(rows)
		c := report.VennVsNaive(rows)
		if len(a.Regions)+len(a.None) == 0 || len(c.Regions)+len(c.None) == 0 {
			b.Fatal("empty Venn")
		}
	}
}

// BenchmarkFig3 regenerates the Figure 3 scatter series (schedules to
// first bug, IPB vs IDB).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := study.RunAll(smallSuite(), study.Config{
			Limit: benchLimit, Seed: 1, RaceRuns: 3,
			Techniques: []explore.Technique{explore.IPB, explore.IDB}, Parallelism: 1,
		})
		if len(report.Fig3Series(rows, benchLimit)) == 0 {
			b.Fatal("empty Figure 3 series")
		}
	}
}

// BenchmarkFig4 regenerates the Figure 4 worst-case series (non-buggy
// schedules within the discovering bound).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := study.RunAll(smallSuite(), study.Config{
			Limit: benchLimit, Seed: 1, RaceRuns: 3,
			Techniques: []explore.Technique{explore.IPB, explore.IDB}, Parallelism: 1,
		})
		if len(report.Fig4Series(rows, benchLimit)) == 0 {
			b.Fatal("empty Figure 4 series")
		}
	}
}

// --- Ablations (DESIGN.md §8) ---

// BenchmarkAblationHandoff measures the substrate's context-switch cost:
// one visible operation = one park/grant handoff.
func BenchmarkAblationHandoff(b *testing.B) {
	var program vthread.Program = func(t *vthread.Thread) {
		for i := 0; i < 1000; i++ {
			t.Yield()
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := vthread.NewWorld(vthread.Options{Chooser: vthread.RoundRobin()})
		out := w.Run(program)
		if len(out.Trace) != 1000 {
			b.Fatalf("trace %d, want 1000", len(out.Trace))
		}
	}
}

// lockyProgram has one racy flag and lots of well-locked traffic — the
// shape race promotion pays off on.
func lockyProgram() vthread.Program {
	return func(t *vthread.Thread) {
		m := t.NewMutex("m")
		safe := t.NewVar("safe", 0)
		racy := t.NewVar("racy", 0)
		worker := func(w *vthread.Thread) {
			for i := 0; i < 4; i++ {
				m.Lock(w)
				safe.Add(w, 1)
				m.Unlock(w)
			}
			racy.Store(w, 1)
		}
		a := t.Spawn(worker)
		c := t.Spawn(worker)
		t.Join(a)
		t.Join(c)
	}
}

// BenchmarkAblationRacePromotion compares exploration with all accesses
// visible against promoted-only visibility (the paper's §5 reduction).
func BenchmarkAblationRacePromotion(b *testing.B) {
	racy := race.RunPhase(race.PhaseConfig{Program: lockyProgram(), Seed: 5}).Racy
	vis := race.Promoted(racy)
	b.Run("AllVisible", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := explore.RunIterative(explore.Config{Program: lockyProgram(), Limit: benchLimit}, explore.CostDelays)
			_ = r.Schedules
		}
	})
	b.Run("PromotedOnly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := explore.RunIterative(explore.Config{Program: lockyProgram(), Visible: vis, Limit: benchLimit}, explore.CostDelays)
			_ = r.Schedules
		}
	})
}

// BenchmarkAblationPCT compares PCT against Rand and IDB on the same
// program (§7 related work).
func BenchmarkAblationPCT(b *testing.B) {
	program := func() vthread.Runnable { return bench.ByName("CS.twostage_bad").New() }
	b.Run("PCT_d2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pct.Run(pct.Config{Program: program, Runs: benchLimit, Depth: 2, Seed: uint64(i)})
		}
	})
	b.Run("Rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explore.RunRand(explore.Config{Program: program(), Limit: benchLimit, Seed: uint64(i)})
		}
	})
	b.Run("IDB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explore.RunIterative(explore.Config{Program: program(), Limit: benchLimit}, explore.CostDelays)
		}
	})
}

// BenchmarkAblationMaple measures the idiom algorithm's cost profile
// (profile runs + one active run per candidate).
func BenchmarkAblationMaple(b *testing.B) {
	bm := bench.ByName("CS.reorder_3_bad")
	for i := 0; i < b.N; i++ {
		mapleidiom.Run(mapleidiom.Config{Program: bm.New, Seed: uint64(i)})
	}
}

// BenchmarkAblationSleepSets contrasts plain DFS with sleep-set
// partial-order reduction (§7's future-work extension): same bugs, far
// fewer counted schedules on programs with independent operations.
func BenchmarkAblationSleepSets(b *testing.B) {
	program := func() vthread.Runnable { return bench.ByName("CS.stack_bad").New() }
	b.Run("DFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explore.RunDFS(explore.Config{Program: program(), Limit: benchLimit})
		}
	})
	b.Run("SleepSet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explore.RunSleepSetDFS(explore.Config{Program: program(), Limit: benchLimit})
		}
	})
}

// BenchmarkAblationBoundedVsUnbounded contrasts the frontier growth of
// bounded search against unbounded DFS on a program whose space dwarfs
// the limit (the paper's core motivation for schedule bounding).
func BenchmarkAblationBoundedVsUnbounded(b *testing.B) {
	program := func() vthread.Runnable { return bench.ByName("CS.reorder_4_bad").New() }
	b.Run("DFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explore.RunDFS(explore.Config{Program: program(), Limit: benchLimit})
		}
	})
	b.Run("IDB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explore.RunIterative(explore.Config{Program: program(), Limit: benchLimit}, explore.CostDelays)
		}
	})
}

// BenchmarkParallelRand measures the wall-clock effect of sharding the
// naive random scheduler's independent runs over a worker pool — the
// embarrassingly parallel end of the parallel driver, expected to scale
// near-linearly up to GOMAXPROCS.
func BenchmarkParallelRand(b *testing.B) {
	program := func() vthread.Runnable { return bench.ByName("CS.twostage_bad").New() }
	const limit = 2000
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explore.RunRand(explore.Config{
					Program: program(), Limit: limit, Seed: uint64(i), Workers: workers,
				})
			}
		})
	}
}

// BenchmarkParallelIDB measures the tree-partitioned parallel driver on
// iterative delay bounding: the same schedule counts as sequential IDB,
// spread over the unit scheduler's workers with the next bound speculated
// behind the active one.
func BenchmarkParallelIDB(b *testing.B) {
	program := func() vthread.Runnable { return bench.ByName("CS.reorder_5_bad").New() }
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explore.RunIterative(explore.Config{
					Program: program(), Workers: workers,
				}, explore.CostDelays)
			}
		})
	}
}

// BenchmarkParallelDFS measures the unit scheduler on an unbounded
// depth-first search truncated at the schedule limit.
func BenchmarkParallelDFS(b *testing.B) {
	program := func() vthread.Runnable { return bench.ByName("CS.reorder_4_bad").New() }
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explore.RunDFS(explore.Config{
					Program: program(), Limit: 2000, Workers: workers,
				})
			}
		})
	}
}
