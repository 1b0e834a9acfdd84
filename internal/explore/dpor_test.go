package explore

import (
	"testing"
	"testing/quick"

	"sctbench/internal/bench"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// TestDPORCollapsesIndependentThreads: on fully independent threads every
// interleaving is equivalent, so DPOR must explore exactly one schedule —
// and, unlike sleep-set DFS (which still *starts* the redundant runs and
// aborts them), it must never need a second execution: no race, no
// backtrack point.
func TestDPORCollapsesIndependentThreads(t *testing.T) {
	r := RunDPOR(Config{Program: independentWorkers(3, 2), Limit: 50000})
	if !r.Complete {
		t.Fatal("DPOR did not complete the reduced space")
	}
	if r.Schedules != 1 {
		t.Errorf("DPOR explored %d schedules of fully independent threads, want 1", r.Schedules)
	}
	if r.Executions != 1 {
		t.Errorf("DPOR used %d executions, want 1 (no races, no backtrack points)", r.Executions)
	}
	if r.BranchesPruned == 0 {
		t.Error("DPOR reports no pruned branches despite collapsing the space")
	}
}

// TestDPORPreservesBugFinding: the Figure 1 bug must be found, with the
// space complete and no more schedules than sleep-set DFS (whose explored
// set DPOR further thins).
func TestDPORPreservesBugFinding(t *testing.T) {
	dfs := RunDFS(Config{Program: figure1()})
	ss := RunSleepSetDFS(Config{Program: figure1()})
	dp := RunDPOR(Config{Program: figure1()})
	if !dp.BugFound {
		t.Fatal("DPOR missed the Figure 1 bug")
	}
	if !dp.Complete {
		t.Fatal("DPOR did not exhaust the reduced space")
	}
	if dp.Failure.Kind != dfs.Failure.Kind {
		t.Errorf("failure kind differs: DPOR %v, DFS %v", dp.Failure.Kind, dfs.Failure.Kind)
	}
	if dp.Schedules > ss.Schedules || ss.Schedules > dfs.Schedules {
		t.Errorf("no reduction chain: DPOR %d, sleep-set %d, DFS %d schedules",
			dp.Schedules, ss.Schedules, dfs.Schedules)
	}
	// The witness must actually reproduce the failure.
	if out := replayWitness(figure1(), dp.Witness); out == nil || out.Failure == nil {
		t.Error("DPOR witness does not replay to a failure")
	}
}

// TestDPORFindsDeadlocks mirrors the sleep-set deadlock test.
func TestDPORFindsDeadlocks(t *testing.T) {
	var program vthread.Program = func(t0 *vthread.Thread) {
		a := t0.NewMutex("a")
		b := t0.NewMutex("b")
		x := t0.Spawn(func(tw *vthread.Thread) {
			a.Lock(tw)
			b.Lock(tw)
			b.Unlock(tw)
			a.Unlock(tw)
		})
		y := t0.Spawn(func(tw *vthread.Thread) {
			b.Lock(tw)
			a.Lock(tw)
			a.Unlock(tw)
			b.Unlock(tw)
		})
		t0.Join(x)
		t0.Join(y)
	}
	dp := RunDPOR(Config{Program: program})
	if !dp.BugFound || dp.Failure.Kind != vthread.FailDeadlock {
		t.Fatalf("DPOR missed the deadlock: found=%v failure=%v", dp.BugFound, dp.Failure)
	}
}

// TestPropertyDPORSoundAndReducing: on random small programs, DPOR
// explores at most sleep-set DFS's schedule count (which is at most
// DFS's), agrees with DFS on the bug verdict, and stays complete when DFS
// is.
func TestPropertyDPORSoundAndReducing(t *testing.T) {
	f := func(shape uint32) bool {
		dfs := RunDFS(Config{Program: genProgram(shape), Limit: 20000})
		if !dfs.Complete {
			return true
		}
		ss := RunSleepSetDFS(Config{Program: genProgram(shape), Limit: 20000})
		dp := RunDPOR(Config{Program: genProgram(shape), Limit: 20000})
		if !dp.Complete {
			t.Logf("shape %d: DPOR incomplete where DFS completed", shape)
			return false
		}
		if dp.Schedules > ss.Schedules {
			t.Logf("shape %d: DPOR %d > sleep-set %d", shape, dp.Schedules, ss.Schedules)
			return false
		}
		if dp.BugFound != dfs.BugFound {
			t.Logf("shape %d: bug disagreement DPOR=%v DFS=%v", shape, dp.BugFound, dfs.BugFound)
			return false
		}
		if dp.Executions > dfs.Executions {
			t.Logf("shape %d: DPOR executions %d > DFS %d", shape, dp.Executions, dfs.Executions)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// replayWitness replays a witness schedule on a fresh World, returning
// nil when the replay diverges.
func replayWitness(program vthread.Runnable, witness sched.Schedule) *vthread.Outcome {
	rep := vthread.NewReplay(witness.Clone())
	out := vthread.NewWorld(vthread.Options{Chooser: rep}).Run(program)
	if rep.Failed() {
		return nil
	}
	return out
}

// dporEquivPrograms are the SCTBench programs the DFS-vs-DPOR equivalence
// suite runs on: the paper-example-scale CS benchmarks whose full space
// DFS can enumerate within the limit.
var dporEquivPrograms = []string{
	"CS.account_bad",
	"CS.lazy01_bad",
	"CS.sync01_bad",
	"CS.arithmetic_prog_bad",
}

// TestDPOREquivalenceOnSCTBench: the tentpole acceptance check. On real CS
// benchmarks DPOR must reach the same buggy/terminal verdict and an
// equally valid first-bug witness as DFS, sequentially and on the worker
// pool, while exploring no more schedules.
func TestDPOREquivalenceOnSCTBench(t *testing.T) {
	for _, name := range dporEquivPrograms {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("unknown benchmark %s", name)
		}
		cfg := Config{Program: b.New(), BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps, Limit: 20000}
		dfs := RunDFS(cfg)
		seq := RunDPOR(cfg)
		if seq.BugFound != dfs.BugFound {
			t.Errorf("%s: verdict differs: DPOR=%v DFS=%v", name, seq.BugFound, dfs.BugFound)
			continue
		}
		if dfs.BugFound && seq.Failure.Kind != dfs.Failure.Kind {
			t.Errorf("%s: failure kind differs: DPOR %v, DFS %v", name, seq.Failure.Kind, dfs.Failure.Kind)
		}
		if !dfs.LimitHit && seq.Schedules > dfs.Schedules {
			t.Errorf("%s: DPOR explored more than DFS: %d > %d", name, seq.Schedules, dfs.Schedules)
		}
		if seq.BugFound {
			if out := replayWitness(b.New(), seq.Witness); out == nil || out.Failure == nil {
				t.Errorf("%s: DPOR witness does not replay to a failure", name)
			}
		}

		for _, workers := range []int{1, 8} {
			pcfg := cfg
			pcfg.Workers = workers
			par := RunDPOR(pcfg)
			if par.BugFound != seq.BugFound || par.Complete != seq.Complete {
				t.Errorf("%s workers=%d: verdict (bug=%v complete=%v) differs from sequential (bug=%v complete=%v)",
					name, workers, par.BugFound, par.Complete, seq.BugFound, seq.Complete)
			}
			// Workers=1 takes the sequential path: counts are bit-identical
			// by construction. (Under actual stealing the merge does not
			// guarantee identical counts for DPOR; see parallel.go.)
			if workers == 1 && (par.Schedules != seq.Schedules || par.Executions != seq.Executions ||
				par.AbortedExecutions != seq.AbortedExecutions || par.TotalSteps != seq.TotalSteps) {
				t.Errorf("%s workers=1: counts differ from sequential: %+v vs %+v", name, par, seq)
			}
			if par.BugFound {
				if out := replayWitness(b.New(), par.Witness); out == nil || out.Failure == nil {
					t.Errorf("%s workers=%d: witness does not replay to a failure", name, workers)
				}
			}
		}
	}
}

// TestDPORReductionOnSCTBench pins the acceptance criterion: on CS-suite
// programs DPOR explores at least 3x fewer executions than DFS with the
// identical bug verdict.
func TestDPORReductionOnSCTBench(t *testing.T) {
	reduced := 0
	for _, name := range dporEquivPrograms {
		b := bench.ByName(name)
		cfg := Config{Program: b.New(), BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps, Limit: 20000}
		dfs := RunDFS(cfg)
		dp := RunDPOR(cfg)
		if dp.BugFound != dfs.BugFound {
			t.Errorf("%s: verdict differs: DPOR=%v DFS=%v", name, dp.BugFound, dfs.BugFound)
			continue
		}
		t.Logf("%s: DFS %d execs / %d steps, DPOR %d execs / %d steps (%d aborted, %d branches pruned)",
			name, dfs.Executions, dfs.TotalSteps, dp.Executions, dp.TotalSteps,
			dp.AbortedExecutions, dp.BranchesPruned)
		if dfs.Executions >= 3*dp.Executions {
			reduced++
		}
	}
	if reduced < 2 {
		t.Errorf("DPOR achieved a 3x execution reduction on only %d programs, want >= 2", reduced)
	}
}

// TestParallelDPORRaceStress drives parallel DPOR with executor reuse
// under the race detector: many worker goroutines, stealing forced by a
// program wide enough to donate from.
func TestParallelDPORRaceStress(t *testing.T) {
	for i := 0; i < 3; i++ {
		r := RunDPOR(Config{Program: independentWorkers(4, 2), Limit: 50000, Workers: 8})
		if r.BugFound {
			t.Fatalf("iteration %d: spurious bug: %v", i, r.Failure)
		}
		if !r.Complete {
			t.Fatalf("iteration %d: incomplete", i)
		}
	}
	b := bench.ByName("CS.account_bad")
	for i := 0; i < 3; i++ {
		r := RunDPOR(Config{Program: b.New(), BoundsCheck: b.BoundsCheck,
			MaxSteps: b.MaxSteps, Limit: 20000, Workers: 8})
		if !r.BugFound {
			t.Fatalf("iteration %d: parallel DPOR missed the CS.account_bad bug", i)
		}
	}
}

// TestSleepSetAbortCutsWork: the chooser-abort conversion must leave
// sleep-set DFS counting the same schedules while executing strictly fewer
// total steps than plain DFS on a program with heavy redundancy.
func TestSleepSetAbortCutsWork(t *testing.T) {
	dfs := RunDFS(Config{Program: independentWorkers(3, 2), Limit: 50000})
	ss := RunSleepSetDFS(Config{Program: independentWorkers(3, 2), Limit: 50000})
	if ss.AbortedExecutions == 0 {
		t.Error("sleep-set DFS aborted no executions on a fully redundant space")
	}
	if ss.AbortedExecutions >= ss.Executions {
		t.Errorf("aborted %d of %d executions: counted schedules must complete", ss.AbortedExecutions, ss.Executions)
	}
	if ss.TotalSteps >= dfs.TotalSteps {
		t.Errorf("abort saved nothing: sleep-set %d steps vs DFS %d", ss.TotalSteps, dfs.TotalSteps)
	}
	if ss.BranchesPruned == 0 {
		t.Error("sleep-set DFS reports no pruned branches")
	}
}

// spawnChain: a parent's pre-spawn write, its child's write and its
// grandchild's write to one variable, ordered by spawn edges alone.
func spawnChain() vthread.Program {
	return func(t0 *vthread.Thread) {
		v := t0.NewVar("v", 0)
		v.Store(t0, 1)
		c := t0.Spawn(func(tc *vthread.Thread) {
			v.Store(tc, 2)
			g := tc.Spawn(func(tg *vthread.Thread) {
				v.Store(tg, 3) // grandchild: ordered via the spawn chain
			})
			tc.Join(g)
		})
		t0.Join(c)
	}
}

// joinThenCheck: independent children, then a parent whose post-join reads
// are ordered after the children's writes by join edges alone.
func joinThenCheck() vthread.Program {
	return func(t0 *vthread.Thread) {
		x := t0.NewVar("x", 0)
		y := t0.NewVar("y", 0)
		a := t0.Spawn(func(ta *vthread.Thread) { x.Store(ta, 1) })
		b := t0.Spawn(func(tb *vthread.Thread) { y.Store(tb, 1) })
		t0.Join(a)
		t0.Join(b)
		t0.Assert(x.Load(t0) == 1 && y.Load(t0) == 1, "lost writes")
	}
}

// TestDPORSpawnEdgesSuppressFalseRaces pins the spawn happens-before edge
// of the race analysis: a parent's pre-spawn write and its child's write
// to the same variable are causally ordered, never a race, so a chain of
// parent-then-child accesses must still collapse to a single execution.
func TestDPORSpawnEdgesSuppressFalseRaces(t *testing.T) {
	r := RunDPOR(Config{Program: spawnChain()})
	if !r.Complete || r.BugFound {
		t.Fatalf("complete=%v bug=%v, want complete and bug-free", r.Complete, r.BugFound)
	}
	if r.Executions != 1 {
		t.Errorf("DPOR used %d executions on a fully spawn-ordered program, want 1 (spawn edges must suppress the false races)", r.Executions)
	}
}

// TestDPORJoinEdgesSuppressFalseRaces pins the join happens-before edge:
// a parent's post-join reads are ordered after the joined children's
// writes, so independent children plus a join-then-check parent must
// still collapse to a single execution.
func TestDPORJoinEdgesSuppressFalseRaces(t *testing.T) {
	r := RunDPOR(Config{Program: joinThenCheck()})
	if !r.Complete || r.BugFound {
		t.Fatalf("complete=%v bug=%v, want complete and bug-free", r.Complete, r.BugFound)
	}
	if r.Executions != 1 {
		t.Errorf("DPOR used %d executions on independent children behind a join, want 1 (join edges must suppress the false races)", r.Executions)
	}
}
