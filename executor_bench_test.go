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
	"time"

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
// one run carries the before/after of the engine swap. "flat-assert" is an
// execution that ends in a failed assertion, the fate of most executions of a
// buggy program's search: what a failure costs the flat engine.
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
		name  string
		prog  vthread.Runnable
		buggy bool
	}{
		{"Executor/ref", bm.Ref(), false},
		{"Executor/flat", bm.New(), false},
		{"Executor/flat-assert", failingSum(), true},
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
				if out.Threads == 0 || out.Buggy() != eng.buggy {
					b.Fatalf("threads %d, failure %v", out.Threads, out.Failure)
				}
				steps += len(out.Trace)
			}
			reportExecRate(b, b.N)
			reportStepCost(b, steps)
		})
	}
}

// BenchmarkStepOverhead isolates the per-step cost of the substrate's two
// transfers on yield-loop programs whose only work is scheduling,
// reporting ns/step for each:
//
//   - same-thread: two runnable threads under RoundRobin — every step runs
//     the chooser on the current thread's goroutine and continues it (zero
//     switches).
//   - cross-thread: two threads under a strict-alternation chooser —
//     every step is a direct thread-to-thread baton handoff (one switch).
//
// The flat/* rows run the same two shapes as compiled programs on the
// single-goroutine flat engine, where a context switch is a function call.
//
// flat/random-6 is the shape of the radbench programs that dominate a study
// pass's Rand cells: six threads in an AddVar loop under the random
// scheduler, whose every pick lands anywhere in the enabled set.
//
// The two flat/threads=100 rows show how a scheduling point scales with the
// thread count, under the random scheduler (whose picks are far from the
// previous thread in round-robin order, the expensive case for delay
// accounting): 100 threads that only yield, where nobody's enabledness ever
// changes, and 100 threads queued on one mutex, where every lock and unlock
// flips 99 of them — the case keeping the enabled set across steps cannot
// help, which must not cost more than rescanning did.
func BenchmarkStepOverhead(b *testing.B) {
	const yields, threads = 64, 2
	var yielders vthread.Program = func(t0 *vthread.Thread) {
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
	p := vthread.NewBuilder()
	body := p.Body(0, 0)
	for s := 0; s < yields; s++ {
		body.Yield()
	}
	main := p.Main()
	for i := 0; i < threads; i++ {
		main.Spawn(body)
	}
	compiledYielders := p.Build()
	hundred := func(body func(c *vthread.Code, m vthread.MutexH)) *vthread.CompiledProgram {
		p := vthread.NewBuilder()
		m := p.Mutex("m")
		wk := p.Body(0, 0)
		for s := 0; s < 8; s++ {
			body(wk, m)
		}
		main := p.Main()
		for i := 0; i < 100; i++ {
			main.Spawn(wk)
		}
		return p.Build()
	}
	adders := func(n, loops int) *vthread.CompiledProgram {
		p := vthread.NewBuilder()
		v := p.Var("v", 0)
		wk := p.Body(0, 0)
		i := wk.Let(0)
		wk.While(func(t *vthread.Thread) bool { return t.Reg(i) < loops }, func() {
			wk.AddVar(v, 1)
			wk.Set(i, func(t *vthread.Thread) int { return t.Reg(i) + 1 })
		})
		main := p.Main()
		for k := 0; k < n; k++ {
			main.Spawn(wk)
		}
		return p.Build()
	}
	spinners := hundred(func(c *vthread.Code, _ vthread.MutexH) { c.Yield() })
	queued := hundred(func(c *vthread.Code, m vthread.MutexH) { c.Lock(m); c.Unlock(m) })
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
		chooser vthread.Chooser
		prog    vthread.Runnable
	}{
		{"same-thread", vthread.RoundRobin(), yielders},
		{"cross-thread", alternate, yielders},
		{"flat/same-thread", vthread.RoundRobin(), compiledYielders},
		{"flat/cross-thread", alternate, compiledYielders},
		{"flat/random-6", vthread.NewRandom(1), adders(6, 32)},
		{"flat/threads=100", vthread.NewRandom(1), spinners},
		{"flat/threads=100-blocked", vthread.NewRandom(1), queued},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			ex := vthread.NewExecutor(vthread.Options{Chooser: c.chooser})
			defer ex.Close()
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				out := ex.Run(c.prog)
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

// lockedCounters is two workers through n locked increments each: executions
// of about 8n steps whose every scheduling point has an alternative.
func lockedCounters(n int) *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	m := p.Mutex("m")
	v := p.Var("v", 0)
	wk := p.Body(0, 0)
	i := wk.Let(0)
	wk.While(func(t *vthread.Thread) bool { return t.Reg(i) < n }, func() {
		wk.Lock(m)
		wk.AddVar(v, 1)
		wk.Unlock(m)
		wk.Set(i, func(t *vthread.Thread) int { return t.Reg(i) + 1 })
	})
	mn := p.Main()
	a, b := mn.Spawn(wk), mn.Spawn(wk)
	mn.Join(a)
	mn.Join(b)
	return p.Build()
}

// failingSum is two unlocked AddVar workers and a main that joins them and
// asserts the sum is 3: every execution ends in a failed assertion.
func failingSum() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	v := p.Var("v", 0)
	wk := p.Body(0, 0)
	wk.AddVar(v, 1)
	mn := p.Main()
	a, b := mn.Spawn(wk), mn.Spawn(wk)
	mn.Join(a)
	mn.Join(b)
	sum := mn.Load(v)
	mn.Assert(func(t *vthread.Thread) bool { return t.Reg(sum) == 3 }, "sum %d, want 3", sum)
	return p.Build()
}

// tailFlip is round-robin except at step at, where — every other run — it
// takes the second enabled thread: consecutive runs share the at steps below.
type tailFlip struct {
	at int
	on bool
}

func (f *tailFlip) Choose(ctx vthread.Context) vthread.ThreadID {
	if ctx.Step == f.at && f.on && len(ctx.Enabled) > 1 {
		for _, t := range ctx.Enabled {
			if t != ctx.Last {
				return t
			}
		}
	}
	if ctx.LastEnabled {
		return ctx.Last
	}
	return ctx.Enabled[0]
}

// BenchmarkPrefixResume shows the prefix-state cache by itself: one
// execution that differs from the previous one in its last 8 steps, at depth
// 20 and at depth 12,000, run from the initial state (scratch: RunWith) and
// continued from a saved state (resumed: RunFrom). steps_run/op is what the
// execution performed itself; a resumed run's ns/op is one restore plus that
// tail plus the snapshots the tail takes. The snapshot row is the cost of
// saving: a 12,000-step run that saves as it goes (RunFrom, nothing shared)
// against the same run that does not (RunWith), per snapshot taken.
func BenchmarkPrefixResume(b *testing.B) {
	for _, n := range []int{3, 1500} {
		prog := lockedCounters(n)
		ex := vthread.NewExecutor(vthread.Options{})
		f := &tailFlip{at: 1 << 30}
		depth := len(ex.RunWith(f, nil, prog).Trace)
		f.at = depth - 8
		for _, mode := range []string{"scratch", "resumed"} {
			b.Run(fmt.Sprintf("depth=%d/%s", depth, mode), func(b *testing.B) {
				b.ReportAllocs()
				ex.RunFrom(f, prog, 0)
				before := ex.StepStats()
				for i := 0; i < b.N; i++ {
					f.on = !f.on
					if mode == "scratch" {
						ex.RunWith(f, nil, prog)
					} else {
						ex.RunFrom(f, prog, f.at)
					}
				}
				after := ex.StepStats()
				run := after.FlatSteps - before.FlatSteps - (after.StepsSkipped - before.StepsSkipped)
				b.ReportMetric(float64(run)/float64(b.N), "steps_run/op")
			})
		}
		ex.Close()
	}
	b.Run("snapshot", func(b *testing.B) {
		prog := lockedCounters(1500)
		ex := vthread.NewExecutor(vthread.Options{})
		defer ex.Close()
		rr := vthread.RoundRobin()
		before := ex.StepStats().Snapshots
		var saving, plain time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			ex.RunWith(rr, nil, prog)
			t1 := time.Now()
			ex.RunFrom(rr, prog, 0)
			plain += t1.Sub(t0)
			saving += time.Since(t1)
		}
		if taken := ex.StepStats().Snapshots - before; taken > 0 {
			b.ReportMetric(float64((saving-plain).Nanoseconds())/float64(taken), "ns/snapshot")
			b.ReportMetric(float64(taken)/float64(b.N), "snapshots/op")
		}
	})
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
