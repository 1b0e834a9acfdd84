package explore

// Exploration tests for the GoTime workload family: clock steps (timer
// firings) must be enumerated, replayed and counted by every engine, DFS
// at workers 1 and 8 must stay bit-identical, and the pruning engines
// (sleep-set DFS, DPOR) must reach the same verdicts with no more
// schedules than DFS — and every technique must count the same on the flat
// and the reference engine. The virtual clock materialises as a
// pseudo-thread, so these are the same contracts goidiom_test.go pins for
// case-decision points, now over the timer dimension.

import (
	"fmt"
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/pct"
	"sctbench/internal/vthread"
)

// pureTimerProgram has exactly one source of nondeterminism: when the
// clock fires a single armed timer relative to two yields. The schedule
// space is the three placements of the clock step (before either yield,
// between them, or forced once the thread blocks on the receive).
func pureTimerProgram() vthread.Program {
	return func(t0 *vthread.Thread) {
		ch := t0.After("t", 1)
		t0.Yield()
		t0.Yield()
		ch.Recv(t0)
	}
}

// TestDFSEnumeratesTimerSteps pins the clock-dimension contract: DFS over
// a single-threaded program with one armed timer and two yields visits
// exactly the three clock-step placements, counts the clock as a second
// thread, and every schedule fires the timer exactly once.
func TestDFSEnumeratesTimerSteps(t *testing.T) {
	r := RunDFS(Config{Program: pureTimerProgram()})
	if !r.Complete || r.Schedules != 3 {
		t.Fatalf("DFS: %d schedules (complete=%v), want exactly 3 clock placements", r.Schedules, r.Complete)
	}
	if r.Threads != 2 {
		t.Fatalf("Threads = %d, want 2 (program thread + clock)", r.Threads)
	}
	if r.BugFound {
		t.Fatalf("bug-free timer program reported %v", r.Failure)
	}
	// The same space under the iterative bounders: delaying the fire past
	// both yields is the zero-cost canonical schedule; the earlier
	// placements preempt the running thread, so bound 1 completes the space.
	for name, model := range map[string]CostModel{"IPB": CostPreemptions, "IDB": CostDelays} {
		r := RunIterative(Config{Program: pureTimerProgram()}, model)
		if !r.Complete || r.Schedules != 3 || r.Bound > 1 {
			t.Fatalf("%s: %d schedules at bound %d (complete=%v), want 3 within bound 1",
				name, r.Schedules, r.Bound, r.Complete)
		}
	}
}

// gotimeConfigs builds an exploration config per GoTime benchmark.
func gotimeConfigs(t *testing.T) map[string]*bench.Benchmark {
	t.Helper()
	out := make(map[string]*bench.Benchmark)
	for _, name := range []string{
		"gotime.timeout_vs_result_bad", "gotime.ticker_leak_bad",
		"gotime.deadline_inherits_bad", "gotime.cancel_after_close_bad",
		"gotime.timer_stop_race_bad", "gotime.ctx_cancel_race_bad",
	} {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("missing benchmark %s", name)
		}
		out[name] = b
	}
	return out
}

// TestGoTimeFastPathEquivalence: the GoTime family explores identically on
// both engines — clock steps included (see assertEngineEquivalence).
func TestGoTimeFastPathEquivalence(t *testing.T) {
	assertEngineEquivalence(t, gotimeConfigs(t))
}

// TestGoTimePruningConsistency: the pruning engines reach the DFS verdict
// on every GoTime benchmark with no more schedules than DFS, and their
// witnesses replay to the same failure kind — timer firings included.
func TestGoTimePruningConsistency(t *testing.T) {
	for name, b := range gotimeConfigs(t) {
		t.Run(name, func(t *testing.T) {
			base := Config{Program: b.New(), BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps, Limit: 20000}
			dfs := RunDFS(base)
			if !dfs.BugFound {
				t.Fatalf("DFS did not find the %s bug", name)
			}
			for tech, run := range map[string]func(Config) *Result{
				"sleepset": RunSleepSetDFS, "DPOR": RunDPOR,
			} {
				cfg := base
				cfg.Program = b.New()
				r := run(cfg)
				if r.BugFound != dfs.BugFound {
					t.Errorf("%s: bug=%v, DFS bug=%v", tech, r.BugFound, dfs.BugFound)
				}
				if dfs.Complete {
					if !r.Complete {
						t.Errorf("%s did not complete a space DFS completed", tech)
					}
					if r.Schedules > dfs.Schedules {
						t.Errorf("%s explored %d schedules, more than DFS's %d", tech, r.Schedules, dfs.Schedules)
					}
				} else if !r.Complete && r.Schedules != dfs.Schedules {
					t.Errorf("%s counted %d truncated schedules, DFS %d", tech, r.Schedules, dfs.Schedules)
				}
				if out := replayWitness(b.New(), r.Witness); out == nil || out.Failure == nil || out.Failure.Kind != b.BugKind {
					t.Errorf("%s witness does not replay to a %v failure", tech, b.BugKind)
				}
			}
		})
	}
}

// TestGoTimeParallelEquivalence: DFS and the iterative bounders stay
// bit-identical between workers 1 and 8 on the GoTime family — the
// branch-key merge must order clock steps exactly like thread steps.
// Bit-exact comparison applies to completed and limit-truncated searches
// alike, parallel DPOR is held to verdict + witness validity (see the
// equivalent GoIdiom test for the contract).
func TestGoTimeParallelEquivalence(t *testing.T) {
	const workers = 8
	for name, b := range gotimeConfigs(t) {
		t.Run(name, func(t *testing.T) {
			base := Config{Program: b.New(), BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps, Limit: 20000}
			for tech, run := range map[string]func(Config) *Result{
				"DFS": RunDFS,
				"IPB": func(c Config) *Result { return RunIterative(c, CostPreemptions) },
				"IDB": func(c Config) *Result { return RunIterative(c, CostDelays) },
			} {
				seqCfg := base
				seqCfg.Program = b.New()
				seq := run(seqCfg)
				parCfg := base
				parCfg.Program = b.New()
				parCfg.Workers = workers
				par := run(parCfg)
				assertEquivalent(t, fmt.Sprintf("%s/%s", tech, name), seq, par)
			}
			cfg := base
			cfg.Program = b.New()
			cfg.Workers = workers
			par := RunDPOR(cfg)
			if !par.BugFound {
				t.Errorf("parallel DPOR missed the %s bug", name)
			} else if out := replayWitness(b.New(), par.Witness); out == nil || out.Failure == nil || out.Failure.Kind != b.BugKind {
				t.Errorf("parallel DPOR witness does not replay to a %v failure", b.BugKind)
			}
		})
	}
}

// TestGoTimeRandomAndPCTFindBugs: the stochastic techniques handle clock
// steps too — Rand and PCT each find every GoTime bug within a modest
// budget (the clock pseudo-thread gets a PCT priority like any other
// thread, and random walks schedule its fires like thread steps).
func TestGoTimeRandomAndPCTFindBugs(t *testing.T) {
	for name, b := range gotimeConfigs(t) {
		r := RunRand(Config{Program: b.New(), BoundsCheck: b.BoundsCheck,
			MaxSteps: b.MaxSteps, Limit: 2000, Seed: 7})
		if !r.BugFound {
			t.Errorf("Rand found no bug in %s within 2000 schedules", name)
		}
		p := pct.Run(pct.Config{Program: b.New, Runs: 2000, Depth: 3, Seed: 7,
			BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps})
		if !p.BugFound {
			t.Errorf("PCT(d=3) found no bug in %s within 2000 runs", name)
		}
	}
}
