package explore

// The parallel driver's contract is equivalence: for DFS/IPB/IDB every
// count a sequential search reports — totals, per-bound news, first-bug
// position, witness, completeness — must be reproduced bit-identically by
// any worker count, whether the search completes or Limit cuts it, and for
// Rand the whole result is deterministic in the seed. These tests pin that
// contract on the paper-example programs, on SCTBench programs under
// truncating limits, and on a wider synthetic program whose tree is big
// enough to force real work-stealing, and stress the pool under the race
// detector.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"sctbench/internal/faultinject"
	"sctbench/internal/vthread"
)

// mesh builds a program with a combinatorially wide schedule space and no
// bug: n threads each perform k visible writes to a shared variable.
func mesh(n, k int) vthread.Program {
	return func(t0 *vthread.Thread) {
		v := t0.NewVar("v", 0)
		bodies := make([]vthread.Program, n)
		for i := 0; i < n; i++ {
			bodies[i] = func(tw *vthread.Thread) {
				for j := 0; j < k; j++ {
					v.Add(tw, 1)
				}
			}
		}
		t0.SpawnAll(bodies...)
	}
}

// paperPrograms are the exploration targets the equivalence tests sweep.
func paperPrograms() map[string]func() vthread.Program {
	return map[string]func() vthread.Program{
		"figure1":  figure1,
		"reorder0": func() vthread.Program { return reorder(0) },
		"reorder2": func() vthread.Program { return reorder(2) },
		"mesh":     func() vthread.Program { return mesh(3, 2) },
	}
}

// assertEquivalent compares every deterministic Result field. Executions is
// excluded: parallel iterative search performs (and honestly reports)
// speculative work a sequential search never does.
func assertEquivalent(t *testing.T, name string, seq, par *Result) {
	t.Helper()
	if seq.Schedules != par.Schedules {
		t.Errorf("%s: Schedules %d (seq) != %d (par)", name, seq.Schedules, par.Schedules)
	}
	if seq.NewSchedules != par.NewSchedules {
		t.Errorf("%s: NewSchedules %d != %d", name, seq.NewSchedules, par.NewSchedules)
	}
	if seq.Bound != par.Bound {
		t.Errorf("%s: Bound %d != %d", name, seq.Bound, par.Bound)
	}
	if seq.BugFound != par.BugFound {
		t.Errorf("%s: BugFound %v != %v", name, seq.BugFound, par.BugFound)
	}
	if seq.SchedulesToFirstBug != par.SchedulesToFirstBug {
		t.Errorf("%s: SchedulesToFirstBug %d != %d", name, seq.SchedulesToFirstBug, par.SchedulesToFirstBug)
	}
	if seq.BuggySchedules != par.BuggySchedules {
		t.Errorf("%s: BuggySchedules %d != %d", name, seq.BuggySchedules, par.BuggySchedules)
	}
	if seq.Complete != par.Complete {
		t.Errorf("%s: Complete %v != %v", name, seq.Complete, par.Complete)
	}
	if seq.LimitHit != par.LimitHit {
		t.Errorf("%s: LimitHit %v != %v", name, seq.LimitHit, par.LimitHit)
	}
	if !seq.Witness.Equal(par.Witness) {
		t.Errorf("%s: Witness %v != %v", name, seq.Witness, par.Witness)
	}
	if (seq.Failure == nil) != (par.Failure == nil) {
		t.Errorf("%s: Failure %v != %v", name, seq.Failure, par.Failure)
	} else if seq.Failure != nil && seq.Failure.Kind != par.Failure.Kind {
		t.Errorf("%s: Failure kind %v != %v", name, seq.Failure.Kind, par.Failure.Kind)
	}
	if seq.MaxEnabled != par.MaxEnabled {
		t.Errorf("%s: MaxEnabled %d != %d", name, seq.MaxEnabled, par.MaxEnabled)
	}
	if seq.MaxSchedPoints != par.MaxSchedPoints {
		t.Errorf("%s: MaxSchedPoints %d != %d", name, seq.MaxSchedPoints, par.MaxSchedPoints)
	}
	if seq.Threads != par.Threads {
		t.Errorf("%s: Threads %d != %d", name, seq.Threads, par.Threads)
	}
}

// assertCountsEqual extends assertEquivalent with the work counters that
// are deterministic for sequential (and unstolen parallel) searches.
func assertCountsEqual(t *testing.T, name string, a, b *Result) {
	t.Helper()
	assertEquivalent(t, name, a, b)
	if a.Executions != b.Executions {
		t.Errorf("%s: Executions %d != %d", name, a.Executions, b.Executions)
	}
	if a.TotalSteps != b.TotalSteps {
		t.Errorf("%s: TotalSteps %d != %d", name, a.TotalSteps, b.TotalSteps)
	}
	if a.AbortedExecutions != b.AbortedExecutions {
		t.Errorf("%s: AbortedExecutions %d != %d", name, a.AbortedExecutions, b.AbortedExecutions)
	}
	if a.BranchesPruned != b.BranchesPruned {
		t.Errorf("%s: BranchesPruned %d != %d", name, a.BranchesPruned, b.BranchesPruned)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	techniques := []Technique{DFS, IPB, IDB}
	for progName, newProg := range paperPrograms() {
		for _, tech := range techniques {
			for _, workers := range []int{2, 8} {
				name := fmt.Sprintf("%s/%s/workers=%d", tech, progName, workers)
				t.Run(name, func(t *testing.T) {
					seq := Run(tech, Config{Program: newProg(), Workers: 1})
					par := Run(tech, Config{Program: newProg(), Workers: workers})
					assertEquivalent(t, name, seq, par)
					// The pool's work metrics are the sum of its units' own
					// tallies; on a complete single pass (no speculation,
					// nothing behind a cut) that is the sequential total.
					if tech == DFS && seq.Complete && (seq.Executions != par.Executions || seq.TotalSteps != par.TotalSteps) {
						t.Errorf("%s: work %d execs / %d steps (seq) != %d / %d (par)", name,
							seq.Executions, seq.TotalSteps, par.Executions, par.TotalSteps)
					}
				})
			}
		}
	}
}

func TestParallelRandBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		seq := Run(Rand, Config{Program: figure1(), Limit: 400, Seed: seed, Workers: 1})
		par := Run(Rand, Config{Program: figure1(), Limit: 400, Seed: seed, Workers: 8})
		assertEquivalent(t, fmt.Sprintf("rand seed=%d", seed), seq, par)
		if seq.Executions != par.Executions {
			t.Errorf("seed=%d: Executions %d != %d (Rand performs exactly Limit runs)",
				seed, seq.Executions, par.Executions)
		}
	}
}

func TestParallelLimitTruncationCountsExact(t *testing.T) {
	// Figure 1 has 11 terminal schedules; a limit of 5 truncates the DFS.
	// The parallel search must keep exactly the five schedules the
	// sequential one does — the canonically first five — whichever worker
	// counts what first.
	seq := RunDFS(Config{Program: figure1(), Limit: 5, Workers: 1})
	for _, workers := range []int{2, 8} {
		par := RunDFS(Config{Program: figure1(), Limit: 5, Workers: workers})
		assertEquivalent(t, fmt.Sprintf("figure1/limit=5/workers=%d", workers), seq, par)
		if !par.LimitHit || par.Complete {
			t.Errorf("workers=%d: LimitHit=%v Complete=%v, want true,false",
				workers, par.LimitHit, par.Complete)
		}
	}
}

// truncBenchNames are the programs the truncation-equivalence tests cut:
// their DFS and IPB trees are much larger than the limits below, their bugs
// sit at different depths of the canonical order, and none is uniform
// enough for a wrong window of schedules to have the right counts.
var truncBenchNames = []string{"CS.account_bad", "CS.circular_buffer_bad", "CS.queue_bad",
	"CS.token_ring_bad", "CS.reorder_4_bad", "CS.wronglock_3_bad"}

// TestParallelTruncatedMatchesSequential is the pool's determinism
// contract where the paper's numbers live — under a truncating Limit (§5:
// every technique is capped at 10,000 schedules): every Result field but
// the work the pool performed behind the cut must equal the sequential
// search's. A pool that hands its budget to whichever units count first
// gets Schedules right and BuggySchedules, SchedulesToFirstBug and the
// witness wrong; this is the test that tells the two apart.
func TestParallelTruncatedMatchesSequential(t *testing.T) {
	techniques := []struct {
		name string
		run  func(Config) *Result
	}{
		{"DFS", RunDFS},
		{"IPB", func(c Config) *Result { return RunIterative(c, CostPreemptions) }},
		{"IDB", func(c Config) *Result { return RunIterative(c, CostDelays) }},
	}
	limits := []int{7, 100, 300, 1000}
	if testing.Short() {
		limits = []int{7, 300}
	}
	for _, tech := range techniques {
		for _, name := range truncBenchNames {
			for _, limit := range limits {
				base := tech.run(ckCfg(t, name, limit))
				if !base.LimitHit {
					continue // this limit does not cut this tree
				}
				for _, workers := range []int{2, 8} {
					cfg := ckCfg(t, name, limit)
					cfg.Workers = workers
					got := tech.run(cfg)
					if d := diffResults(maskWorkMetrics(base), maskWorkMetrics(got)); len(d) != 0 {
						t.Errorf("%s/%s/limit=%d/workers=%d diverged from sequential:\n  %s",
							tech.name, name, limit, workers, strings.Join(d, "\n  "))
					}
					if got.Executions < base.Executions {
						t.Errorf("%s/%s/limit=%d/workers=%d: %d executions, fewer than the %d the kept schedules need",
							tech.name, name, limit, workers, got.Executions, base.Executions)
					}
				}
			}
		}
	}
}

// TestParallelTruncatedHeadStalled pins the interleaving behind that
// contract instead of waiting for the workers to produce it: the pass's
// lexicographically first unit is split and its head half held back
// (faultinject) until the units behind it have finished a whole budget's
// worth of schedules, and only then released (internal/dist's
// TestDistTruncatedMatchesSequential holds it back on the HTTP transport).
// A pass that handed its budget to whichever units counted first would then
// keep the wrong schedules; the result must still be the sequential one.
func TestParallelTruncatedHeadStalled(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	const limit = 300
	base := RunDFS(ckCfg(t, "CS.account_bad", limit))
	if !base.LimitHit || base.BuggySchedules == 0 {
		t.Fatalf("baseline must be truncated and buggy: %+v", base)
	}
	cfg := ckCfg(t, "CS.account_bad", limit)
	cfg.Workers = 2
	releases := 0
	stallReleased = func(held, budget int) {
		releases++
		if held < budget {
			t.Errorf("the head half was released with %d schedules held behind it, short of the budget %d", held, budget)
		}
	}
	t.Cleanup(func() { stallReleased = nil })
	faultinject.Arm(faultinject.PoolStallHead, 1)
	got := RunDFS(cfg)
	if faultinject.Hit(faultinject.PoolStallHead) {
		t.Fatal("the head unit was never stalled")
	}
	if releases != 1 {
		t.Errorf("the held head half was released %d times, want once", releases)
	}
	if d := diffResults(maskWorkMetrics(base), maskWorkMetrics(got)); len(d) != 0 {
		t.Errorf("with the head unit stalled the scheduler diverged from sequential:\n  %s",
			strings.Join(d, "\n  "))
	}
}

func TestParallelMoreWorkersThanWork(t *testing.T) {
	// reorder(0) has a tiny tree; a 32-worker pool must still terminate and
	// agree with the sequential result.
	seq := RunIterative(Config{Program: reorder(0), Workers: 1}, CostDelays)
	par := RunIterative(Config{Program: reorder(0), Workers: 32}, CostDelays)
	assertEquivalent(t, "reorder0/IDB/workers=32", seq, par)
}

// TestParallelSpeculationRespectsExecutionBudget pins the guard-rail
// accounting: a MaxExecutions budget that a sequential search fits into
// must not be tripped by a parallel search just because speculative bound
// sweeps performed extra work — speculation spends only its own budget.
func TestParallelSpeculationRespectsExecutionBudget(t *testing.T) {
	seq := RunIterative(Config{Program: reorder(2), Workers: 1}, CostDelays)
	if seq.LimitHit || !seq.BugFound {
		t.Fatalf("unexpected sequential baseline: %+v", seq)
	}
	budget := seq.Executions + 8 // tight: cancelled speculative work alone exceeds the slack
	tight := Config{Program: reorder(2), MaxExecutions: budget}
	seqT, parT := tight, tight
	seqT.Workers, parT.Workers = 1, 8
	assertEquivalent(t, "tight-exec-budget",
		RunIterative(seqT, CostDelays), RunIterative(parT, CostDelays))

	// Exact budget: the execution that exhausts MaxExecutions still runs
	// and counts, and the search reports LimitHit, sequentially and in
	// parallel alike.
	exact := Config{Program: reorder(2), MaxExecutions: seq.Executions}
	seqE, parE := exact, exact
	seqE.Workers, parE.Workers = 1, 8
	se, pe := RunIterative(seqE, CostDelays), RunIterative(parE, CostDelays)
	if !se.LimitHit {
		t.Fatalf("sequential exact-budget run did not report LimitHit: %+v", se)
	}
	assertEquivalent(t, "exact-exec-budget", se, pe)
}

// TestParallelExecutorReuseStress hammers the per-worker Executor reuse
// path: a deep buggy program explored by a 16-worker pool, so every worker
// runs thousands of executions on one recycled thread pool, donated units
// hop between workers (and hence between executors), and buggy outcomes
// force witness cloning out of recycled trace buffers. The results must
// stay bit-identical to a sequential search; `go test -race` is the other
// half of the assertion.
func TestParallelExecutorReuseStress(t *testing.T) {
	iters := 3
	if testing.Short() {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		for _, tech := range []Technique{DFS, IPB, IDB} {
			name := fmt.Sprintf("iter%d/%s", i, tech)
			seq := Run(tech, Config{Program: reorder(2), Workers: 1})
			par := Run(tech, Config{Program: reorder(2), Workers: 16})
			if !par.BugFound {
				t.Fatalf("%s: parallel search missed the reorder bug", name)
			}
			assertEquivalent(t, name, seq, par)
		}
	}
}

// TestParallelWorkerPoolStress drives every technique with a large worker
// pool over programs wide enough to keep the donation path hot. Its real
// assertion is the race detector: `go test -race` must pass.
func TestParallelWorkerPoolStress(t *testing.T) {
	iters := 4
	if testing.Short() {
		iters = 1
	}
	for i := 0; i < iters; i++ {
		for _, tech := range []Technique{DFS, IPB, IDB, Rand} {
			cfg := Config{Program: mesh(3, 2), Workers: 16, Limit: 600, Seed: uint64(i + 1)}
			res := Run(tech, cfg)
			if res.BugFound {
				t.Fatalf("iter %d: %s found a bug in the bug-free mesh program: %v",
					i, tech, res.Failure)
			}
			if res.Schedules == 0 {
				t.Fatalf("iter %d: %s explored no schedules", i, tech)
			}
		}
	}
}

// misusingProgram is a compiled program that on its panicAt-th execution
// (counted across every invocation, whichever goroutine runs it) calls a
// blocking operation from an operand closure. The substrate does not contain
// that as a program failure: engine misuse is rethrown to whoever called Run.
//
// The counting closure breaks the contract of operand closures on purpose —
// they are pure functions of registers, cells and object registers, and an
// execution continued from a saved prefix state does not evaluate the
// operands of that prefix again — so it sits where evaluations and executions
// are the same number: on the initial thread's last operation, registered
// once both workers are joined. From there on only one thread is left, so no
// search backtracks to those steps and every execution performs them itself.
func misusingProgram(panicAt int64) vthread.Runnable {
	var evals atomic.Int64
	p := vthread.NewBuilder()
	v := p.Var("v", 0)
	wk := p.Body(0, 0)
	wk.Store(v, 1)
	wk.Store(v, 2)
	mn := p.Main()
	w1 := mn.Spawn(wk)
	w2 := mn.Spawn(wk)
	mn.Store(v, 3)
	mn.Join(w1)
	mn.Join(w2)
	mn.Store(v, func(t *vthread.Thread) int {
		if evals.Add(1) == panicAt {
			return t.NewVar("misuse", 0).Load(t)
		}
		return 4
	})
	return p.Build()
}

// TestSequentialPanicReachesCaller pins both halves of the panic contract.
// Under Workers <= 1 a panic that escapes an execution reaches explore.Run's
// caller as the value it was thrown with; the pool contains the same panic as
// one forfeited unit, reports it, and withholds Complete.
func TestSequentialPanicReachesCaller(t *testing.T) {
	const panicAt = 20
	func() {
		defer func() {
			rec := recover()
			if got := fmt.Sprintf("%T", rec); got != "vthread.misuseError" {
				t.Fatalf("recovered a %s (%v), want the vthread.misuseError the substrate threw", got, rec)
			}
			if !strings.Contains(fmt.Sprint(rec), "blocking operation on a flat-engine thread") {
				t.Fatalf("recovered %v", rec)
			}
		}()
		r := Run(DFS, Config{Program: misusingProgram(panicAt)})
		t.Fatalf("sequential Run returned (%d executions) instead of panicking", r.Executions)
	}()

	clean := Run(DFS, Config{Program: misusingProgram(-1)})
	if !clean.Complete || clean.Executions <= panicAt {
		t.Fatalf("baseline: complete %v after %d executions", clean.Complete, clean.Executions)
	}
	r := Run(DFS, Config{Program: misusingProgram(panicAt), Workers: 2})
	if r.WorkerPanics != 1 || !strings.Contains(r.WorkerPanicMsg, "blocking operation") {
		t.Fatalf("WorkerPanics = %d (%q), want the one contained panic", r.WorkerPanics, r.WorkerPanicMsg)
	}
	if r.Complete {
		t.Fatal("Complete reported despite a forfeited unit")
	}
}
