package explore

// The prefix-state differential oracle. Both engines run their executions
// through vthread.Executor.RunFrom, which may continue from a saved state of
// the previous execution instead of re-executing the shared prefix. The cache
// must only ever be a cache: through the package's one run hook, every
// execution the engines ask for is run as asked — and then replayed from the
// initial state on a second executor, and the two Outcomes compared field by
// field; and a whole search run the second way (the hook passing shared = 0)
// must return the same Result.
//
// TestMain also lets the whole suite be run the second way:
//
//	SCTBENCH_COLD_RUNS=1 go test ./internal/explore/

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/faultinject"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// coldRuns is the run hook that makes every execution start from the initial
// state, whatever prefix it shares with the one before.
func coldRuns(cfg Config, ex *vthread.Executor, c vthread.Chooser, _ int) *vthread.Outcome {
	return ex.RunFrom(c, cfg.Program, 0)
}

func TestMain(m *testing.M) {
	if os.Getenv("SCTBENCH_COLD_RUNS") != "" {
		runHook = coldRuns
	}
	os.Exit(m.Run())
}

// shadowReplay re-makes a recorded execution's choices, and cuts the run
// where the recorded one was cut by its chooser.
type shadowReplay struct {
	trace   sched.Schedule
	aborted bool
	overrun bool
}

func (r *shadowReplay) Choose(ctx vthread.Context) sched.ThreadID {
	if ctx.Step < len(r.trace) {
		return r.trace[ctx.Step]
	}
	if r.aborted {
		ctx.Abort()
	} else {
		r.overrun = true
	}
	return ctx.Enabled[0]
}

// sameOutcome compares everything two Outcomes say.
func sameOutcome(a, b *vthread.Outcome) bool {
	if !a.Trace.Equal(b.Trace) || a.PC != b.PC || a.DC != b.DC || a.SchedPoints != b.SchedPoints ||
		a.SelectPoints != b.SelectPoints || a.TimerPoints != b.TimerPoints || a.MaxEnabled != b.MaxEnabled ||
		a.Threads != b.Threads || a.StepLimitHit != b.StepLimitHit || a.Aborted != b.Aborted ||
		(a.Failure == nil) != (b.Failure == nil) {
		return false
	}
	return a.Failure == nil || *a.Failure.Clone() == *b.Failure.Clone()
}

// describeOutcome renders it, for the report of a difference.
func describeOutcome(o *vthread.Outcome) string {
	f := "clean"
	if o.Failure != nil {
		f = fmt.Sprintf("%v/T%d/%s", o.Failure.Kind, o.Failure.Thread, o.Failure.Clone().Message)
	}
	return fmt.Sprintf("trace %v pc %d dc %d sched %d sel %d timer %d maxen %d threads %d limit %v aborted %v failure %s",
		o.Trace, o.PC, o.DC, o.SchedPoints, o.SelectPoints, o.TimerPoints, o.MaxEnabled, o.Threads,
		o.StepLimitHit, o.Aborted, f)
}

// prefixOracle counts what the hook saw. shadows maps an engine's executor to
// the one its executions are replayed on (one goroutine uses both).
type prefixOracle struct {
	execs, resumed, differences atomic.Int64
	shadows                     sync.Map
	mu                          sync.Mutex
	first                       string
}

// withPrefixOracle installs the oracle for the duration of the test and
// fails it on any difference.
func withPrefixOracle(t *testing.T) *prefixOracle {
	t.Helper()
	if runHook != nil {
		t.Skip("the suite is running from scratch (SCTBENCH_COLD_RUNS): nothing to compare")
	}
	o := &prefixOracle{}
	runHook = func(cfg Config, ex *vthread.Executor, c vthread.Chooser, shared int) *vthread.Outcome {
		before := ex.StepStats().RunsResumed
		out := ex.RunFrom(c, cfg.Program, shared)
		o.execs.Add(1)
		o.resumed.Add(ex.StepStats().RunsResumed - before)
		sh, ok := o.shadows.Load(ex)
		if !ok {
			sh = newExecutor(cfg)
			o.shadows.Store(ex, sh)
		}
		replay := &shadowReplay{trace: out.Trace, aborted: out.Aborted}
		want := sh.(*vthread.Executor).RunWith(replay, nil, cfg.Program)
		if !sameOutcome(out, want) || replay.overrun {
			o.differences.Add(1)
			o.mu.Lock()
			if o.first == "" {
				o.first = fmt.Sprintf("shared %d:\n  as run:       %s\n  from scratch: %s",
					shared, describeOutcome(out), describeOutcome(want))
			}
			o.mu.Unlock()
		}
		return out
	}
	t.Cleanup(func() {
		runHook = nil
		o.shadows.Range(func(_, sh any) bool {
			sh.(*vthread.Executor).Close()
			return true
		})
		if d := o.differences.Load(); d != 0 {
			t.Errorf("%d of %d executions differ from their from-scratch replay; the first, %s",
				d, o.execs.Load(), o.first)
		}
	})
	return o
}

// cold runs f with every execution started from the initial state.
func cold(f func() *Result) *Result {
	prev := runHook
	runHook = coldRuns
	defer func() { runHook = prev }()
	return f()
}

// oracleTechniques are the five searches that share prefixes.
var oracleTechniques = map[string]func(Config) *Result{
	"DFS":      RunDFS,
	"IPB":      func(c Config) *Result { return RunIterative(c, CostPreemptions) },
	"IDB":      func(c Config) *Result { return RunIterative(c, CostDelays) },
	"sleepset": RunSleepSetDFS,
	"DPOR":     RunDPOR,
}

// TestPrefixOracleRegistry: all 64 registry programs under the five tree
// searches at a truncating limit, sequentially — every execution compared
// with its from-scratch replay, every Result with the from-scratch search's.
// The limits are below the study's 400 to keep the sweep at a few seconds,
// without changing what it covers — the backtracking pattern of a truncated
// search's first executions. The pruning engines get 4 where the others get
// 120, because they count only non-redundant schedules; and sleep-set DFS is
// left out on radbench.bug1 and bug5, where its second schedule lies behind
// 2,000 aborted 12,000-step executions — 48M from-scratch steps a cell for
// the oracle's two reference runs, most of what this package would cost under
// the race detector. DFS, IPB, IDB and DPOR cover those two programs' state.
// Every compiled program — timers, contexts, selects and dynamic mutexes
// included — must have had executions continued from a saved state.
func TestPrefixOracleRegistry(t *testing.T) {
	o := withPrefixOracle(t)
	for _, b := range bench.All() {
		before := o.resumed.Load()
		for name, run := range oracleTechniques {
			limit := 120
			if name == "sleepset" || name == "DPOR" {
				limit = 4
			}
			if name == "sleepset" && (b.Name == "radbench.bug1" || b.Name == "radbench.bug5") {
				continue
			}
			want := cold(func() *Result { return run(ckCfg(t, b.Name, limit)) })
			requireSameResult(t, b.Name+"/"+name, want, run(ckCfg(t, b.Name, limit)))
		}
		if _, compiled := b.New().(*vthread.CompiledProgram); compiled && o.resumed.Load() == before {
			t.Errorf("%s: no execution continued from a saved state", b.Name)
		}
	}
	if o.resumed.Load()*2 < o.execs.Load() {
		t.Errorf("only %d of %d executions continued from a saved state", o.resumed.Load(), o.execs.Load())
	}
}

// TestPrefixOraclePool: the worker pool at 2 and 8 workers. Units move
// between workers and are carved off running engines (split); a donee must
// start cold on whatever executor it lands on, and a donor's next execution
// still shares its prefix. DFS/IPB/IDB reproduce the sequential Result up to
// the work tallies; the pruning engines its verdict.
func TestPrefixOraclePool(t *testing.T) {
	o := withPrefixOracle(t)
	for _, name := range []string{"CS.account_bad", "CS.reorder_4_bad", "CS.token_ring_bad", "CS.din_phil3_sat", "chess.WSQ"} {
		for tech, run := range oracleTechniques {
			want := cold(func() *Result { return run(ckCfg(t, name, 2000)) })
			for _, workers := range []int{2, 8} {
				cfg := ckCfg(t, name, 2000)
				cfg.Workers = workers
				got := run(cfg)
				label := fmt.Sprintf("%s/%s workers=%d", name, tech, workers)
				if tech == "sleepset" || tech == "DPOR" {
					if got.BugFound != want.BugFound {
						t.Errorf("%s: BugFound %v, sequential %v", label, got.BugFound, want.BugFound)
					}
					continue
				}
				requireSameResult(t, label, maskWorkMetrics(want), maskWorkMetrics(got))
			}
		}
	}
	if o.resumed.Load() == 0 {
		t.Error("no pool execution continued from a saved state")
	}
}

// TestPrefixOracleKillAndResume: a search killed at its nth execution and
// resumed from the checkpoint — a restored engine starts cold, then shares
// prefixes again — ends where the from-scratch, uninterrupted one does.
func TestPrefixOracleKillAndResume(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	o := withPrefixOracle(t)
	for tech, run := range oracleTechniques {
		if tech == "sleepset" {
			continue // no checkpoint technique of its own
		}
		want := cold(func() *Result { return run(ckCfg(t, "CS.reorder_4_bad", 600)) })
		for _, n := range []int{2, 57, 200} {
			got := interruptAndResume(t, run, ckCfg(t, "CS.reorder_4_bad", 600), n)
			requireSameResult(t, fmt.Sprintf("%s killed at %d", tech, n), want, got)
		}
	}
	if o.resumed.Load() == 0 {
		t.Error("no execution continued from a saved state")
	}
}

// TestPrefixOracleCutRuns: executions cut by MaxSteps (nothing to check a
// cost against, a stack as deep as the limit) and chooser-aborted ones (the
// pruning engines' redundant runs).
func TestPrefixOracleCutRuns(t *testing.T) {
	o := withPrefixOracle(t)
	for tech, run := range oracleTechniques {
		cfg := ckCfg(t, "CS.din_phil3_sat", 1500)
		cfg.MaxSteps = 14
		want := cold(func() *Result { return run(cfg) })
		requireSameResult(t, tech+" MaxSteps=14", want, run(cfg))
	}
	aborted := 0
	for _, name := range []string{"CS.reorder_4_bad", "CS.circular_buffer_bad"} {
		for tech, run := range map[string]func(Config) *Result{"sleepset": RunSleepSetDFS, "DPOR": RunDPOR} {
			want := cold(func() *Result { return run(benchCfg(t, name)) })
			got := run(benchCfg(t, name))
			requireSameResult(t, name+"/"+tech, want, got)
			aborted += got.AbortedExecutions
		}
	}
	if aborted == 0 {
		t.Error("no aborted execution")
	}
	if o.resumed.Load() == 0 {
		t.Error("no execution continued from a saved state")
	}
}

// TestPrefixOracleRandomPrograms: the generated closure programs run on the
// reference engine, where nothing is saved — RunFrom must be RunWith there.
func TestPrefixOracleRandomPrograms(t *testing.T) {
	o := withPrefixOracle(t)
	for shape := uint32(0); shape < 40; shape++ {
		for tech, run := range oracleTechniques {
			cfg := Config{Program: genProgram(shape * 2654435761), Limit: 200}
			want := cold(func() *Result { return run(cfg) })
			requireSameResult(t, fmt.Sprintf("shape %d/%s", shape, tech), want, run(cfg))
		}
	}
	if o.resumed.Load() != 0 {
		t.Errorf("%d executions of closure programs were continued from a saved state", o.resumed.Load())
	}
}

// TestCheckCostFiresOnResumedRun: the engine's cost cross-check reads the
// running cost its Choose calls accumulate; on a resumed run the first call
// is at the restored depth, and the check must still see a wrong cost.
func TestCheckCostFiresOnResumedRun(t *testing.T) {
	if runHook != nil {
		t.Skip("the suite is running from scratch (SCTBENCH_COLD_RUNS): no run is resumed")
	}
	cfg := ckCfg(t, "CS.reorder_4_bad", 0).withDefaults()
	e := newEngine(cfg, CostDelays, 2, nil)
	ex := newExecutor(cfg)
	e.setExec(ex)
	for i := 0; i < 10; i++ {
		e.runOnce()
		if !e.backtrack() {
			t.Fatal("search exhausted")
		}
	}
	resumed := ex.StepStats().RunsResumed
	if resumed == 0 || e.shared == 0 {
		t.Fatalf("%d runs resumed, shared %d: the run to come would not be a resumed one", resumed, e.shared)
	}
	top := &e.stack[len(e.stack)-1]
	top.base++ // the engine now believes the prefix above this choice costs one more delay
	defer func() {
		if r := recover(); r == nil {
			t.Error("checkCost did not fire")
		}
		if got := ex.StepStats().RunsResumed; got != resumed+1 {
			t.Errorf("the miscounted run was not a resumed one (%d -> %d)", resumed, got)
		}
	}()
	e.runOnce()
}
