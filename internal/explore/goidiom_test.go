package explore

// Exploration tests for the GoIdiom workload family: select case-decision
// points must be enumerated, replayed and counted by every engine, DFS at
// workers 1 and 8 must stay bit-identical, the pruning engines (sleep-set
// DFS, DPOR) must reach the same verdicts with no more schedules than DFS,
// and every technique must count the same on the flat and the reference
// engine. Also here: the TrySend/TryRecv/TryLock enabled-set edge-case
// equivalence the try-ops satellite asks for.

import (
	"fmt"
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/vthread"
)

// pureSelectProgram has exactly one source of nondeterminism: a single
// 3-way select whose three cases are all ready. The whole schedule space
// is the three case picks.
func pureSelectProgram() vthread.Program {
	return func(t0 *vthread.Thread) {
		a := t0.NewChan("a", 1)
		b := t0.NewChan("b", 1)
		c := t0.NewChan("c", 1)
		a.Send(t0, 1)
		b.Send(t0, 2)
		t0.Select([]vthread.SelectCase{
			vthread.RecvCase(a),
			vthread.RecvCase(b),
			vthread.SendCase(c, 3),
		}, false)
	}
}

// TestDFSEnumeratesSelectCases pins the decision-dimension contract: DFS
// over a single-threaded program with one 3-ready-case select visits
// exactly three terminal schedules — the case picks — and counts the
// decision as a scheduling point even though no second thread ever exists.
func TestDFSEnumeratesSelectCases(t *testing.T) {
	r := RunDFS(Config{Program: pureSelectProgram()})
	if !r.Complete || r.Schedules != 3 {
		t.Fatalf("DFS: %d schedules (complete=%v), want exactly 3 case picks", r.Schedules, r.Complete)
	}
	if r.MaxSchedPoints != 1 {
		t.Fatalf("MaxSchedPoints = %d, want 1 (the case-decision point)", r.MaxSchedPoints)
	}
	if r.Threads != 1 {
		t.Fatalf("Threads = %d, want 1", r.Threads)
	}
	// The same space under IPB/IDB: case picks cost zero preemptions and
	// zero delays, so bound 0 already covers all three schedules.
	for name, model := range map[string]CostModel{"IPB": CostPreemptions, "IDB": CostDelays} {
		r := RunIterative(Config{Program: pureSelectProgram()}, model)
		if !r.Complete || r.Schedules != 3 || r.Bound != 0 {
			t.Fatalf("%s: %d schedules at bound %d (complete=%v), want 3 at bound 0",
				name, r.Schedules, r.Bound, r.Complete)
		}
	}
}

// goidiomConfigs builds an exploration config per GoIdiom benchmark.
func goidiomConfigs(t *testing.T) map[string]*bench.Benchmark {
	t.Helper()
	out := make(map[string]*bench.Benchmark)
	for _, name := range []string{
		"goidiom.workerpool_bad", "goidiom.pipeline_bad", "goidiom.cancel_bad",
		"goidiom.wgdone_bad", "goidiom.select_starve_bad", "goidiom.once_reenter_bad",
	} {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("missing benchmark %s", name)
		}
		out[name] = b
	}
	return out
}

// assertEngineEquivalence: on each of the (compiled) benchmarks, DFS,
// sleep-set DFS and DPOR find the registered bug and produce bit-identical
// counts, steps, witnesses and verdicts on the flat engine and on the
// reference engine (Debug.NoFlatEngine).
func assertEngineEquivalence(t *testing.T, benches map[string]*bench.Benchmark) {
	runs := map[string]func(Config) *Result{
		"DFS":      RunDFS,
		"sleepset": RunSleepSetDFS,
		"DPOR":     RunDPOR,
	}
	for name, b := range benches {
		for tech, run := range runs {
			t.Run(fmt.Sprintf("%s/%s", tech, name), func(t *testing.T) {
				cfg := Config{Program: b.New(), BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps, Limit: 20000}
				flat := run(cfg)
				if !flat.BugFound {
					t.Fatalf("%s did not find the %s bug", tech, name)
				}
				if flat.Failure.Kind != b.BugKind {
					t.Fatalf("%s found a %v bug, registry says %v", tech, flat.Failure.Kind, b.BugKind)
				}
				cfg.Program = b.New()
				cfg.Debug = vthread.Debug{NoFlatEngine: true}
				assertCountsEqual(t, fmt.Sprintf("%s/%s/ref", tech, name), flat, run(cfg))
			})
		}
	}
}

// TestGoIdiomFastPathEquivalence: the GoIdiom family explores identically
// on both engines (see assertEngineEquivalence).
func TestGoIdiomFastPathEquivalence(t *testing.T) {
	assertEngineEquivalence(t, goidiomConfigs(t))
}

// TestGoIdiomPruningConsistency: the pruning engines reach the DFS verdict
// on every GoIdiom benchmark with no more schedules than DFS, and their
// witnesses replay to the same failure kind.
func TestGoIdiomPruningConsistency(t *testing.T) {
	for name, b := range goidiomConfigs(t) {
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
					// On a fully enumerated space the reduced searches must
					// also complete, with no more schedules than DFS.
					if !r.Complete {
						t.Errorf("%s did not complete a space DFS completed", tech)
					}
					if r.Schedules > dfs.Schedules {
						t.Errorf("%s explored %d schedules, more than DFS's %d", tech, r.Schedules, dfs.Schedules)
					}
				} else if !r.Complete && r.Schedules != dfs.Schedules {
					// Both truncated: the schedule budget must bind identically.
					t.Errorf("%s counted %d truncated schedules, DFS %d", tech, r.Schedules, dfs.Schedules)
				}
				if out := replayWitness(b.New(), r.Witness); out == nil || out.Failure == nil || out.Failure.Kind != b.BugKind {
					t.Errorf("%s witness does not replay to a %v failure", tech, b.BugKind)
				}
			}
		})
	}
}

// TestGoIdiomParallelEquivalence: DFS and the iterative bounders stay
// bit-identical between workers 1 and 8 on the GoIdiom family — the
// branch-key merge must order case-decision points exactly like thread
// points. That holds whether the search completes or the schedule limit
// truncates it: Limit is applied by the canonical merge, so the schedules
// inside the budget are the canonically first ones under any worker count.
// DPOR at 8 workers is held to verdict + witness validity (its counts are
// exact only without stealing; see parallel.go).
func TestGoIdiomParallelEquivalence(t *testing.T) {
	const workers = 8
	for name, b := range goidiomConfigs(t) {
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

// tryOpsProgram exercises the enabled-set edge cases of the non-blocking
// operations: TryLock contention, TrySend against a full buffer and
// TryRecv against an empty one, with a schedule-dependent assertion (both
// workers can fail their TryLock only under contention interleavings).
func tryOpsProgram() vthread.Program {
	return func(t0 *vthread.Thread) {
		m := t0.NewMutex("m")
		c := t0.NewChan("c", 1)
		hits := t0.NewVar("hits", 0)
		worker := func(tw *vthread.Thread) {
			if m.TryLock(tw) {
				hits.Add(tw, 1)
				m.Unlock(tw)
			}
			if !c.TrySend(tw, 1) {
				c.TryRecv(tw)
			}
		}
		a := t0.Spawn(worker)
		b := t0.Spawn(worker)
		t0.Join(a)
		t0.Join(b)
		t0.Assert(hits.Load(t0) == 2, "a TryLock was starved: hits=%d", hits.Load(t0))
	}
}

// TestTryOpsDPORvsDFSEquivalence is the try-ops satellite: on a
// channel-heavy try-op program, DFS at workers 1 and 8 is bit-identical,
// DPOR reaches the DFS verdict with no more schedules, and both find the
// TryLock-starvation bug.
func TestTryOpsDPORvsDFSEquivalence(t *testing.T) {
	base := Config{Program: tryOpsProgram(), Limit: 20000}
	dfs1 := RunDFS(base)
	if !dfs1.BugFound || !dfs1.Complete {
		t.Fatalf("DFS: bug=%v complete=%v, want found+complete", dfs1.BugFound, dfs1.Complete)
	}
	par := base
	par.Workers = 8
	dfs8 := RunDFS(par)
	assertEquivalent(t, "tryops/DFS-1-vs-8", dfs1, dfs8)

	dpor := RunDPOR(base)
	if dpor.BugFound != dfs1.BugFound || dpor.Complete != dfs1.Complete {
		t.Fatalf("DPOR verdict bug=%v complete=%v differs from DFS", dpor.BugFound, dpor.Complete)
	}
	if dpor.Schedules > dfs1.Schedules {
		t.Fatalf("DPOR explored %d schedules, more than DFS's %d", dpor.Schedules, dfs1.Schedules)
	}
	if out := replayWitness(tryOpsProgram(), dpor.Witness); out == nil || out.Failure == nil {
		t.Fatal("DPOR witness does not replay to a failure")
	}
	dpor8 := par
	dpor8.Limit = 20000
	r8 := RunDPOR(dpor8)
	if r8.BugFound != dpor.BugFound {
		t.Fatalf("parallel DPOR verdict bug=%v differs from sequential %v", r8.BugFound, dpor.BugFound)
	}
}
