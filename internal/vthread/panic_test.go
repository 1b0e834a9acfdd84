package vthread

import (
	"strings"
	"testing"
)

// panicClosureProgram is a two-thread closure program whose worker panics
// after a visible operation, so the panic happens mid-schedule with a
// non-empty trace behind it.
func panicClosureProgram(t *Thread) {
	v := t.NewVar("v", 0)
	w := t.Spawn(func(u *Thread) {
		v.Store(u, 1)
		panic("worker exploded")
	})
	v.Store(t, 2)
	t.Join(w)
}

// cleanClosureProgram is a small program that must keep running cleanly on
// an executor that just contained a panic.
func cleanClosureProgram(t *Thread) {
	v := t.NewVar("v", 0)
	w := t.Spawn(func(u *Thread) { v.Add(u, 1) })
	v.Add(t, 1)
	t.Join(w)
	t.Assert(v.Load(t) == 2, "lost update: %d", v.Load(t))
}

// compiledPanicProgram builds the flat-engine counterpart: a worker whose
// Store operand panics.
func compiledPanicProgram() *CompiledProgram {
	p := NewBuilder()
	v := p.Var("v", 0)
	wk := p.Body(0, 0)
	wk.Store(v, func(t *Thread) int { panic("operand exploded") })
	mn := p.Main()
	w := mn.Spawn(wk)
	mn.Store(v, 2)
	mn.Join(w)
	return p.Build()
}

func compiledCleanProgram() *CompiledProgram {
	p := NewBuilder()
	v := p.Var("v", 0)
	wk := p.Body(0, 0)
	wk.AddVar(v, 1)
	mn := p.Main()
	w := mn.Spawn(wk)
	mn.AddVar(v, 1)
	mn.Join(w)
	c := mn.Load(v)
	mn.Assert(func(t *Thread) bool { return t.Reg(c) == 2 }, "lost update")
	return p.Build()
}

func checkPanicOutcome(t *testing.T, out *Outcome, wantMsg string) {
	t.Helper()
	if out.Failure == nil {
		t.Fatal("panicking program reported no failure")
	}
	if out.Failure.Kind != FailPanic {
		t.Fatalf("failure kind %v, want panic", out.Failure.Kind)
	}
	if !strings.Contains(out.Failure.Message, wantMsg) {
		t.Fatalf("failure message %q does not mention %q", out.Failure.Message, wantMsg)
	}
	if len(out.Trace) == 0 {
		t.Fatal("panic outcome lost its trace")
	}
}

// TestPanicContainedReferenceEngine: a panic in a closure body becomes a
// FailPanic failure with the trace intact, and the same pooled Executor
// keeps completing clean runs afterwards (goroutine-reuse regression).
func TestPanicContainedReferenceEngine(t *testing.T) {
	ex := NewExecutor(Options{Chooser: RoundRobin()})
	defer ex.Close()
	for round := 0; round < 3; round++ {
		out := ex.Run(Program(panicClosureProgram))
		checkPanicOutcome(t, out, "worker exploded")
		clean := ex.Run(Program(cleanClosureProgram))
		if clean.Failure != nil {
			t.Fatalf("round %d: clean run after contained panic failed: %v", round, clean.Failure)
		}
	}
}

// TestPanicContainedFlatEngine: same contract for a compiled-instruction
// operand on the flat engine, plus the bridge path (AsProgram) that runs the
// compiled program on the goroutine reference engine.
func TestPanicContainedFlatEngine(t *testing.T) {
	for _, engine := range Engines {
		ex := NewExecutor(Options{Chooser: RoundRobin()})
		for round := 0; round < 3; round++ {
			out := ex.Run(engine.Of(compiledPanicProgram()))
			checkPanicOutcome(t, out, "operand exploded")
			clean := ex.Run(engine.Of(compiledCleanProgram()))
			if clean.Failure != nil {
				t.Fatalf("%s round %d: clean run after contained panic failed: %v",
					engine.Name, round, clean.Failure)
			}
		}
		ex.Close()
	}
}

// TestPanicWitnessReplays: the trace of a contained panic replays to the
// same FailPanic verdict on both engines — a panic is a replayable bug.
func TestPanicWitnessReplays(t *testing.T) {
	ex := NewExecutor(Options{Chooser: RoundRobin()})
	defer ex.Close()
	out := ex.Run(compiledPanicProgram())
	checkPanicOutcome(t, out, "operand exploded")
	witness := out.Trace.Clone()

	rep := ex.RunWith(NewReplay(witness), nil, compiledPanicProgram())
	checkPanicOutcome(t, rep, "operand exploded")
	if !rep.Trace.Equal(witness) {
		t.Fatalf("replay diverged: %v vs %v", rep.Trace, witness)
	}

	exRef := NewExecutor(Options{})
	defer exRef.Close()
	ref := exRef.RunWith(NewReplay(witness), nil, AsProgram(compiledPanicProgram()))
	checkPanicOutcome(t, ref, "operand exploded")
	if !ref.Trace.Equal(witness) {
		t.Fatalf("reference replay diverged: %v vs %v", ref.Trace, witness)
	}
}

// TestPanicInSpawnPrefix: a panic before the thread's first visible
// operation unwinds through the eager spawn prefix (the parkTo route) and
// is still contained.
func TestPanicInSpawnPrefix(t *testing.T) {
	ex := NewExecutor(Options{Chooser: RoundRobin()})
	defer ex.Close()
	prog := func(t *Thread) {
		w := t.Spawn(func(u *Thread) { panic("prefix exploded") })
		t.Join(w)
	}
	out := ex.Run(Program(prog))
	if out.Failure == nil || out.Failure.Kind != FailPanic {
		t.Fatalf("prefix panic not contained: %+v", out.Failure)
	}
	clean := ex.Run(Program(cleanClosureProgram))
	if clean.Failure != nil {
		t.Fatalf("clean run after prefix panic failed: %v", clean.Failure)
	}
}
