// Reduction benchmarks for the pruning stack: DFS versus sleep-set DFS
// versus source-set DPOR on CS-suite programs. The numbers that matter are
// executions per full exploration, total executed steps (the abort path's
// saving) and wall-clock. Plain `go test -bench` benchmarks; the ledger's
// exhaustive_reduction workload (benchmark/) pins the same counts.
package sctbench

import (
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
)

// exploreReductionPrograms are small enough for DFS to enumerate the full
// space within the limit, so the reduction factors are exact, not
// budget-truncated.
var exploreReductionPrograms = []string{
	"CS.account_bad",
	"CS.lazy01_bad",
	"CS.arithmetic_prog_bad",
	// Five threads: enough enabled threads a node for the walker's per-node
	// cost to show (DFS needs 1,399 schedules to the bug, the POR walkers 7).
	"CS.wronglock_3_bad",
}

// BenchmarkExploreReduction runs one complete exploration per iteration
// and reports executions, counted schedules, executed steps and
// executions/sec per technique. The per-op time is the headline wall-clock
// comparison: DPOR must beat DFS by more than its reduction bookkeeping
// costs.
func BenchmarkExploreReduction(b *testing.B) {
	techniques := []struct {
		name string
		run  func(cfg explore.Config) *explore.Result
	}{
		{"dfs", func(cfg explore.Config) *explore.Result { return explore.RunDFS(cfg) }},
		{"sleepset", explore.RunSleepSetDFS},
		{"dpor", func(cfg explore.Config) *explore.Result { return explore.RunDPOR(cfg) }},
	}
	for _, name := range exploreReductionPrograms {
		bm := bench.ByName(name)
		if bm == nil {
			b.Fatalf("unknown benchmark %s", name)
		}
		for _, tech := range techniques {
			b.Run(name+"/"+tech.name, func(b *testing.B) {
				b.ReportAllocs()
				prog := bm.New()
				var execs, scheds, aborted int
				var steps int64
				bugFound := false
				for i := 0; i < b.N; i++ {
					r := tech.run(explore.Config{
						Program: prog, BoundsCheck: bm.BoundsCheck,
						MaxSteps: bm.MaxSteps, Limit: 20000,
					})
					execs += r.Executions
					scheds += r.Schedules
					aborted += r.AbortedExecutions
					steps += r.TotalSteps
					bugFound = r.BugFound
				}
				if !bugFound {
					b.Fatalf("%s/%s: bug not found", name, tech.name)
				}
				n := float64(b.N)
				b.ReportMetric(float64(execs)/n, "execs/explore")
				b.ReportMetric(float64(scheds)/n, "schedules/explore")
				b.ReportMetric(float64(steps)/n, "steps/explore")
				b.ReportMetric(float64(aborted)/n, "aborted/explore")
				reportExecRate(b, execs)
			})
		}
	}
}

// BenchmarkBoundedLong runs the bounded searches at the study's limit of 400
// on the two registry programs with the longest executions (12,013 and 14,014
// steps), where few points of an execution can branch within the bound: what
// an execution costs there is mostly what the engine and the prefix cache pay
// at points that cannot. It reports executions and steps per search,
// allocations and executions/sec.
func BenchmarkBoundedLong(b *testing.B) {
	techniques := []struct {
		name string
		tech explore.Technique
	}{{"ipb", explore.IPB}, {"idb", explore.IDB}, {"dfs", explore.DFS}}
	for _, name := range []string{"radbench.bug1", "radbench.bug5"} {
		bm := bench.ByName(name)
		for _, tech := range techniques {
			b.Run(name+"/"+tech.name, func(b *testing.B) {
				b.ReportAllocs()
				prog := bm.New()
				var execs int
				var steps int64
				for i := 0; i < b.N; i++ {
					r := explore.Run(tech.tech, explore.Config{
						Program: prog, BoundsCheck: bm.BoundsCheck,
						MaxSteps: bm.MaxSteps, Limit: 400,
					})
					if r.Schedules != 400 {
						b.Fatalf("%s/%s: %d schedules, want the limit's 400", name, tech.name, r.Schedules)
					}
					execs += r.Executions
					steps += r.TotalSteps
				}
				n := float64(b.N)
				b.ReportMetric(float64(execs)/n, "execs/explore")
				b.ReportMetric(float64(steps)/n, "steps/explore")
				reportExecRate(b, execs)
			})
		}
	}
}
