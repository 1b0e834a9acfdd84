// Throughput benchmarks for the pooled execution substrate. The workload
// of the study is millions of short executions, so the numbers that matter
// are executions/sec and allocs/execution. Plain `go test -bench`
// benchmarks; the ledger's vthread.* probes (benchmark/) track the same
// costs, except BenchmarkStepOverhead's per-route numbers, which only live
// here.
package sctbench

import (
	"fmt"
	"runtime"
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/vthread"
)

// BenchmarkExecutorThroughput contrasts the NewWorld-per-run baseline with
// a reused Executor on a CS-suite program under the deterministic
// scheduler: the pure substrate overhead of one execution, allocations
// included. The Executor rows split by engine — "ref" runs the closure
// twin on the goroutine reference engine (the pre-flat history row),
// "flat" runs the compiled form on the single-goroutine flat engine — so
// one run carries the before/after of the engine swap.
func BenchmarkExecutorThroughput(b *testing.B) {
	bm := bench.ByName("CS.account_bad")
	b.Run("NewWorldPerRun", func(b *testing.B) {
		b.ReportAllocs()
		prog := bm.Ref()
		for i := 0; i < b.N; i++ {
			out := vthread.NewWorld(vthread.Options{
				Chooser: vthread.RoundRobin(), BoundsCheck: bm.BoundsCheck, MaxSteps: bm.MaxSteps,
			}).Run(prog)
			if out.Threads == 0 {
				b.Fatal("no threads ran")
			}
		}
		reportExecRate(b, b.N)
	})
	engines := []struct {
		name string
		prog vthread.Runnable
	}{
		{"Executor/ref", bm.Ref()},
		{"Executor/flat", bm.New()},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			ex := vthread.NewExecutor(vthread.Options{
				Chooser: vthread.RoundRobin(), BoundsCheck: bm.BoundsCheck, MaxSteps: bm.MaxSteps,
			})
			defer ex.Close()
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				out := ex.Run(eng.prog)
				if out.Threads == 0 {
					b.Fatal("no threads ran")
				}
				steps += len(out.Trace)
			}
			reportExecRate(b, b.N)
			reportStepCost(b, steps)
		})
	}
}

// BenchmarkStepOverhead isolates the per-step handoff cost of the
// substrate's step-dispatch paths on yield-loop programs whose only work
// is scheduling, reporting ns/step for each:
//
//   - same-thread: two runnable threads under an inline-run round-robin
//     chooser that is not a StepObserver — every step runs the chooser on
//     the current thread's goroutine and continues it (zero switches).
//   - forced: one runnable thread under the opted-in RoundRobin — every
//     step is granted without a Choose call (zero switches, no decision).
//   - cross-thread: two threads under a strict-alternation chooser —
//     every step is a direct thread-to-thread baton handoff (one switch).
//   - bounced: the same alternation with direct handoff disabled — every
//     grant routes through the exec goroutine, the two context switches
//     per step the central-loop protocol paid for all steps.
//
// The flat/* rows run the same yield-loop shapes as compiled programs on
// the single-goroutine flat engine, where a context switch is a function
// call: flat/chooser (two threads, chooser consulted every step),
// flat/forced (one runnable thread, grant without a Choose call) and
// flat/cross-thread (strict alternation, one interpreter swap per step).
func BenchmarkStepOverhead(b *testing.B) {
	const yields = 64
	yielders := func(threads int) vthread.Program {
		return func(t0 *vthread.Thread) {
			bodies := make([]vthread.Program, threads)
			for i := range bodies {
				bodies[i] = func(tw *vthread.Thread) {
					for s := 0; s < yields; s++ {
						tw.Yield()
					}
				}
			}
			t0.SpawnAll(bodies...)
		}
	}
	compiledYielders := func(threads int) *vthread.CompiledProgram {
		p := vthread.NewBuilder()
		body := p.Body(0, 0)
		for s := 0; s < yields; s++ {
			body.Yield()
		}
		main := p.Main()
		for i := 0; i < threads; i++ {
			main.Spawn(body)
		}
		return p.Build()
	}
	// inlineRR mirrors RoundRobin without implementing StepObserver, so
	// the chooser runs at every point (isolating path (a) from (b)).
	inlineRR := vthread.ChooserFunc(func(ctx vthread.Context) vthread.ThreadID {
		if ctx.LastEnabled {
			return ctx.Last
		}
		return ctx.Enabled[0]
	})
	alternate := vthread.ChooserFunc(func(ctx vthread.Context) vthread.ThreadID {
		for _, t := range ctx.Enabled {
			if t != ctx.Last {
				return t
			}
		}
		return ctx.Enabled[0]
	})
	cases := []struct {
		name    string
		threads int
		chooser vthread.Chooser
		debug   vthread.Debug
		flat    bool
	}{
		{"same-thread", 2, inlineRR, vthread.Debug{}, false},
		{"forced", 1, vthread.RoundRobin(), vthread.Debug{}, false},
		{"cross-thread", 2, alternate, vthread.Debug{}, false},
		{"bounced", 2, alternate, vthread.Debug{NoDirectHandoff: true}, false},
		{"flat/chooser", 2, inlineRR, vthread.Debug{}, true},
		{"flat/forced", 1, vthread.RoundRobin(), vthread.Debug{}, true},
		{"flat/cross-thread", 2, alternate, vthread.Debug{}, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			ex := vthread.NewExecutor(vthread.Options{Chooser: c.chooser, Debug: c.debug})
			defer ex.Close()
			var prog vthread.Runnable = yielders(c.threads)
			if c.flat {
				prog = compiledYielders(c.threads)
			}
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				out := ex.Run(prog)
				if out.Failure != nil {
					b.Fatalf("unexpected failure: %v", out.Failure)
				}
				steps += len(out.Trace)
			}
			reportStepCost(b, steps)
		})
	}
}

// BenchmarkSubstrateThroughputSequential measures whole-driver throughput
// (engine + substrate) on a sequential bounded search over the CS suite's
// reorder program: executions/sec with the schedule-space walk, cost
// accounting and witness handling included.
func BenchmarkSubstrateThroughputSequential(b *testing.B) {
	bm := bench.ByName("CS.reorder_4_bad")
	prog := bm.New()
	b.ReportAllocs()
	execs := 0
	for i := 0; i < b.N; i++ {
		r := explore.RunIterative(explore.Config{
			Program: prog, BoundsCheck: bm.BoundsCheck, MaxSteps: bm.MaxSteps, Limit: 500,
		}, explore.CostDelays)
		execs += r.Executions
	}
	reportExecRate(b, execs)
}

// BenchmarkSubstrateThroughputParallel is the same walk over the
// work-stealing pool with one Executor per worker.
func BenchmarkSubstrateThroughputParallel(b *testing.B) {
	bm := bench.ByName("CS.reorder_4_bad")
	prog := bm.New()
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			execs := 0
			for i := 0; i < b.N; i++ {
				r := explore.RunIterative(explore.Config{
					Program: prog, BoundsCheck: bm.BoundsCheck, MaxSteps: bm.MaxSteps,
					Limit: 500, Workers: workers,
				}, explore.CostDelays)
				execs += r.Executions
			}
			reportExecRate(b, execs)
		})
	}
}

// reportExecRate attaches the executions/sec custom metric.
func reportExecRate(b *testing.B, execs int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(execs)/s, "execs/s")
	}
}

// reportStepCost attaches the per-scheduling-step cost custom metric.
func reportStepCost(b *testing.B, steps int) {
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
}
