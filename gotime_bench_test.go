// Benchmarks for the GoTime workload family: the DPOR/sleep-set reduction
// factors on timer/ticker/context programs (whose schedule spaces carry
// the clock pseudo-thread as an extra interleaving dimension) and the raw
// substrate throughput of a timer-heavy program. Plain `go test -bench`
// benchmarks; the repo's performance ledger is benchmark/.
package sctbench

import (
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/vthread"
)

// goTimeReductionPrograms: the whole family completes under every
// technique within the limit, so the reduction factors are exact.
var goTimeReductionPrograms = []string{
	"gotime.timeout_vs_result_bad",
	"gotime.ticker_leak_bad",
	"gotime.deadline_inherits_bad",
	"gotime.cancel_after_close_bad",
	"gotime.timer_stop_race_bad",
	"gotime.ctx_cancel_race_bad",
}

// BenchmarkGoTime runs one complete exploration per iteration over the
// GoTime family and reports executions, counted schedules, executed steps
// and executions/sec per technique, exactly like BenchmarkGoIdiom does
// for the select/WaitGroup/Once family.
func BenchmarkGoTime(b *testing.B) {
	techniques := []struct {
		name string
		run  func(cfg explore.Config) *explore.Result
	}{
		{"dfs", func(cfg explore.Config) *explore.Result { return explore.RunDFS(cfg) }},
		{"sleepset", explore.RunSleepSetDFS},
		{"dpor", func(cfg explore.Config) *explore.Result { return explore.RunDPOR(cfg) }},
	}
	for _, name := range goTimeReductionPrograms {
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

// BenchmarkGoTimeThroughput measures raw substrate throughput on a
// timer-and-context-heavy program under the deterministic scheduler: what
// one execution of the virtual-time surface costs, allocations included
// (the clock-recycling regression guard alongside
// BenchmarkExecutorThroughput).
func BenchmarkGoTimeThroughput(b *testing.B) {
	prog := vthread.Program(func(t0 *vthread.Thread) {
		ctx := t0.WithTimeout("req", nil, 100)
		res := t0.NewChan("res", 1)
		wg := t0.NewWaitGroup("wg")
		wg.Add(t0, 1)
		t0.Spawn(func(tw *vthread.Thread) {
			tw.Sleep("work", 2)
			res.TrySend(tw, 1)
			wg.Done(tw)
		})
		tm := t0.NewTimer("deadline", 5)
		t0.Select([]vthread.SelectCase{
			vthread.RecvCase(res),
			vthread.RecvCase(tm.C()),
			vthread.RecvCase(ctx.Done()),
		}, false)
		tm.Stop(t0)
		wg.Wait(t0)
		ctx.Cancel(t0)
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
