package explore

import (
	"testing"

	"sctbench/internal/mapleidiom"
	"sctbench/internal/pct"
	"sctbench/internal/sched"
	"sctbench/internal/simplify"
	"sctbench/internal/vthread"
)

// retentionProgram is a compiled lost-update program whose assertion
// message prints a register that differs from one buggy run to the next:
// three workers add 1, 300 and 5000 to v by a separate load and store, and
// main asserts v == 5301, printing v. Which updates a schedule loses decides
// the value, and most values are above the 255 Go boxes without allocating.
func retentionProgram() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	v := p.Var("v", 0)
	wk := p.Body(1, 0)
	x, d := wk.Load(v), wk.Arg(0)
	wk.Store(v, func(t *vthread.Thread) int { return t.Reg(x) + t.Reg(d) })
	mn := p.Main()
	ws := []vthread.OReg{mn.Spawn(wk, 1), mn.Spawn(wk, 300), mn.Spawn(wk, 5000)}
	for _, w := range ws {
		mn.Join(w)
	}
	got := mn.Load(v)
	mn.Assert(func(t *vthread.Thread) bool { return t.Reg(got) == 5301 }, "v=%d, want 5301", got)
	return p.Build()
}

// requireReplayedFailure checks one kept failure against the reference
// engine: replaying its witness on a fresh World must fail exactly so.
func requireReplayedFailure(t *testing.T, label string, prog vthread.Runnable, f *vthread.Failure, witness sched.Schedule) {
	t.Helper()
	if f == nil {
		t.Fatalf("%s: no failure kept", label)
	}
	out := replayWitness(prog, witness)
	if out == nil || out.Failure == nil {
		t.Fatalf("%s: witness %v does not replay to a failure", label, witness)
	}
	if *out.Failure != *f {
		t.Errorf("%s: kept %q, its witness replays to %q", label, f, out.Failure)
	}
}

// TestFailureRetention is the oracle of the Failure aliasing contract: an
// Executor's Outcome.Failure is a record the next failing run rewrites, so
// every path that keeps one must Clone it. On a program whose buggy runs all
// fail with different messages, every keeping path — each search technique,
// the pool, corpus replay, MapleAlg, PCT and the minimiser — must report
// exactly the failure its own witness replays to on the reference engine,
// although later failing runs followed on the same Executor.
func TestFailureRetention(t *testing.T) {
	prog := retentionProgram()

	// The premise: buggy runs fail with different messages.
	msgs := map[string]bool{}
	ex := vthread.NewExecutor(vthread.Options{})
	for seed := uint64(0); seed < 200; seed++ {
		if out := ex.RunWith(vthread.NewRandom(seed), nil, prog); out.Buggy() {
			msgs[out.Failure.Clone().Message] = true
		}
	}
	ex.Close()
	if len(msgs) < 3 {
		t.Fatalf("premise broken: buggy runs fail with %d distinct messages", len(msgs))
	}

	runs := []struct {
		name string
		run  func(Config) *Result
	}{
		{"DFS", RunDFS},
		{"IPB", func(c Config) *Result { return RunIterative(c, CostPreemptions) }},
		{"IDB", func(c Config) *Result { return RunIterative(c, CostDelays) }},
		{"DPOR", RunDPOR},
		{"sleepset", RunSleepSetDFS},
		{"Rand", RunRand},
	}
	for _, workers := range []int{1, 2} {
		for _, tr := range runs {
			if workers > 1 && tr.name == "sleepset" {
				continue // sequential only
			}
			r := tr.run(Config{Program: prog, Limit: 5000, Seed: 3, Workers: workers})
			label := tr.name
			if workers > 1 {
				label += "/workers=2"
			}
			if r.BuggySchedules < 2 {
				t.Fatalf("%s: %d buggy schedules, the test needs later failing runs", label, r.BuggySchedules)
			}
			requireReplayedFailure(t, label, prog, r.Failure, r.Witness)
		}
	}

	// Corpus replay: the second run reproduces from the stored witness, and
	// the stored message is its replay's too.
	store := openCorpus(t)
	hash := vthread.ProgramHash(prog, 0)
	cfg := Config{Program: prog, Corpus: store, ProgramHash: hash}
	first := Run(DFS, cfg)
	requireReplayedFailure(t, "corpus/cold", prog, first.Failure, first.Witness)
	second := Run(DFS, cfg)
	if !second.CorpusHit {
		t.Fatal("corpus: second run did not reproduce from the stored witness")
	}
	requireReplayedFailure(t, "corpus/replay", prog, second.Failure, second.Witness)
	e, _ := store.Get(hash)
	for _, w := range e.Witnesses {
		if out := replayWitness(prog, w.Schedule); out == nil || out.Failure == nil ||
			out.Failure.Kind.String() != w.Kind || out.Failure.Message != w.Message {
			t.Errorf("corpus: stored witness says %s %q, its replay %v", w.Kind, w.Message, out)
		}
	}

	newProg := func() vthread.Runnable { return prog }
	maple := mapleidiom.Run(mapleidiom.Config{Program: newProg, Seed: 3})
	if !maple.BugFound {
		t.Fatal("MapleAlg missed the bug")
	}
	requireReplayedFailure(t, "mapleidiom", prog, maple.Failure, maple.Witness)

	p := pct.Run(pct.Config{Program: newProg, Runs: 300, Depth: 2, Seed: 3})
	if p.BuggyRuns < 2 {
		t.Fatalf("pct: %d buggy runs, the test needs later failing runs", p.BuggyRuns)
	}
	requireReplayedFailure(t, "pct", prog, p.Failure, p.Witness)

	// A random witness is preemption-heavy: the minimiser improves on it,
	// keeping a candidate's failure, and replays more candidates after.
	rnd := RunRand(Config{Program: prog, Limit: 50, Seed: 3})
	min := simplify.Minimize(newProg, rnd.Witness, simplify.Options{})
	if min.PC >= min.OriginalPC || min.Replays < 2 {
		t.Fatalf("simplify: PC %d -> %d in %d replays, the test needs an improvement and later runs", min.OriginalPC, min.PC, min.Replays)
	}
	requireReplayedFailure(t, "simplify", prog, min.Failure, min.Schedule)
}
