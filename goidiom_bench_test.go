// Benchmarks for the GoIdiom workload family: the DPOR/sleep-set reduction
// factors on select/WaitGroup/Once programs (whose schedule spaces carry a
// case-decision dimension the pthread-style suites lack) and the raw
// substrate throughput of a select-heavy program. Plain `go test -bench`
// benchmarks; the repo's performance ledger is benchmark/.
package sctbench

import (
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/vthread"
)

// goIdiomReductionPrograms: cancel/select_starve/wgdone complete under
// every technique within the limit, so the reduction factors are exact;
// pipeline's plain-DFS space exceeds two million schedules (its dfs rows
// are budget-truncated at the limit), which is itself the point — DPOR
// completes it in ~10k executions.
var goIdiomReductionPrograms = []string{
	"goidiom.cancel_bad",
	"goidiom.select_starve_bad",
	"goidiom.wgdone_bad",
	"goidiom.pipeline_bad",
}

// BenchmarkGoIdiom runs one complete exploration per iteration over the
// GoIdiom family and reports executions, counted schedules, executed
// steps and executions/sec per technique, exactly like
// BenchmarkExploreReduction does for the CS suite.
func BenchmarkGoIdiom(b *testing.B) {
	techniques := []struct {
		name string
		run  func(cfg explore.Config) *explore.Result
	}{
		{"dfs", func(cfg explore.Config) *explore.Result { return explore.RunDFS(cfg) }},
		{"sleepset", explore.RunSleepSetDFS},
		{"dpor", func(cfg explore.Config) *explore.Result { return explore.RunDPOR(cfg) }},
	}
	for _, name := range goIdiomReductionPrograms {
		bm := bench.ByName(name)
		if bm == nil {
			b.Fatalf("unknown benchmark %s", name)
		}
		for _, tech := range techniques {
			b.Run(name+"/"+tech.name, func(b *testing.B) {
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

// BenchmarkGoIdiomThroughput measures raw substrate throughput on a
// select-heavy program under the deterministic scheduler: what one
// execution of the new op surface costs, allocations included (the
// N-ary-footprint regression guard alongside BenchmarkExecutorThroughput).
func BenchmarkGoIdiomThroughput(b *testing.B) {
	prog := vthread.Program(func(t0 *vthread.Thread) {
		work := t0.NewChan("work", 2)
		done := t0.NewChan("done", 1)
		wg := t0.NewWaitGroup("wg")
		wg.Add(t0, 1)
		t0.Spawn(func(tw *vthread.Thread) {
			for {
				idx, _, _ := tw.Select([]vthread.SelectCase{
					vthread.RecvCase(work),
					vthread.RecvCase(done),
				}, false)
				if idx == 1 {
					wg.Done(tw)
					return
				}
			}
		})
		for i := 0; i < 4; i++ {
			work.Send(t0, i)
		}
		done.Close(t0)
		wg.Wait(t0)
	})
	b.ReportAllocs()
	ex := vthread.NewExecutor(vthread.Options{Chooser: vthread.RoundRobin()})
	defer ex.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := ex.Run(prog)
		if out.Failure != nil {
			b.Fatalf("unexpected failure: %v", out.Failure)
		}
	}
	reportExecRate(b, b.N)
}
