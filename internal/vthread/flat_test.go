package vthread

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// compiledExecutorTwin is executorTestProgram translated op-for-op to the
// builder DSL (see the equivalence contract in prog.go).
func compiledExecutorTwin() *CompiledProgram {
	p := NewBuilder()
	m := p.Mutex("m")
	v := p.Var("v", 0)
	wk := p.Body(0, 0)
	wk.Lock(m)
	wk.AddVar(v, 1)
	wk.Unlock(m)
	l := wk.Load(v)
	wk.Store(v, func(t *Thread) int { return t.Reg(l) + 1 })
	mn := p.Main()
	a := mn.Spawn(wk)
	b := mn.Spawn(wk)
	mn.Join(a)
	mn.Join(b)
	// Go evaluates the condition and the message arguments before Assert
	// runs: two loads, in that order.
	c1 := mn.Load(v)
	c2 := mn.Load(v)
	mn.Assert(func(t *Thread) bool { return t.Reg(c1) >= 2 }, "lost updates: %d", c2)
	return p.Build()
}

// compiledDeadlockTwin is deadlockProgram in instruction form.
func compiledDeadlockTwin() *CompiledProgram {
	p := NewBuilder()
	m := p.Mutex("m")
	child := p.Body(0, 0)
	child.Lock(m)
	child.Unlock(m)
	mn := p.Main()
	mn.Lock(m)
	for i := 0; i < 3; i++ {
		mn.Spawn(child)
	}
	return p.Build()
}

// genCompiled is genProgram translated op-for-op to the builder DSL: the
// same shape seed yields the same op mix, so a closure run and a compiled
// run of the same shape must be bit-identical under any chooser.
func genCompiled(shape uint32) *CompiledProgram {
	p := NewBuilder()
	nWorkers := int(shape%3) + 1
	ops := int((shape/4)%5) + 1
	m := p.Mutex("m")
	v := p.Var("v", 0)
	s := p.Sem("s", 1)
	a := p.Chan("a", 2)
	b := p.Chan("b", 2)
	g := p.WaitGroup("g")
	once := p.Once("o")

	// All workers run the same seed-derived mix, so one body serves them
	// all (runtime-varying names evaluate t.ID() per thread).
	wk := p.Body(0, 0)
	mix := shape
	for o := 0; o < ops; o++ {
		switch op := o; mix % 8 {
		case 0:
			wk.Lock(m)
			wk.AddVar(v, 1)
			wk.Unlock(m)
		case 1:
			wk.AddVar(v, 1)
		case 2:
			wk.P(s)
			wk.Yield()
			wk.V(s)
		case 3:
			wk.Select([]SCase{RecvC(a), RecvC(b), SendC(a, op)}, true)
		case 4:
			wk.OnceDo(once, func() { wk.AddVar(v, 1) })
			sent := wk.TrySend(a, op)
			wk.If(func(t *Thread) bool { return t.Reg(sent) == 0 }, func() {
				wk.TryRecv(b)
			})
		case 5:
			wk.Yield()
		case 6:
			wk.Sleep(func(t *Thread) string {
				return fmt.Sprintf("nap/%d/%d", t.ID(), op)
			}, int64(op%3))
			tk := wk.NewTicker(func(t *Thread) string {
				return fmt.Sprintf("tick/%d/%d", t.ID(), op)
			}, 2)
			wk.Recv(tk)
			wk.TickerStop(tk)
		default:
			par := wk.WithCancel(func(t *Thread) string {
				return fmt.Sprintf("cp/%d/%d", t.ID(), op)
			}, NoCtx)
			cc := wk.WithTimeout(func(t *Thread) string {
				return fmt.Sprintf("cc/%d/%d", t.ID(), op)
			}, par, int64(op%2)+1)
			if op%2 == 1 {
				wk.CtxCancel(par)
			}
			_, ok := wk.Recv(cc)
			wk.If(ok, func() {
				wk.Fail("ctx done channel delivered a value")
			})
		}
		mix /= 8
	}
	wk.WGDone(g)

	mn := p.Main()
	mn.WGAdd(g, nWorkers)
	mn.Send(a, 1)
	mn.Send(b, 2)
	hs := make([]OReg, 0, nWorkers)
	for i := 0; i < nWorkers; i++ {
		hs = append(hs, mn.Spawn(wk))
	}
	mn.WGWait(g)
	for _, h := range hs {
		mn.Join(h)
	}
	return p.Build()
}

// runPair executes the closure reference and the Runnable under test with
// per-run TraceLoggers and identical choosers, returning both outcomes and
// both event streams.
func runPair(t *testing.T, ref Program, got Runnable, mk func() Chooser, d Debug) (wo, go_ *Outcome, wev, gev string) {
	t.Helper()
	exRef := NewExecutor(Options{Debug: d})
	defer exRef.Close()
	exGot := NewExecutor(Options{Debug: d})
	defer exGot.Close()
	lw, lg := NewTraceLogger(), NewTraceLogger()
	wo = exRef.RunWith(mk(), lw, ref)
	go_ = exGot.RunWith(mk(), lg, got)
	return wo, go_, lw.String(), lg.String()
}

// TestFlatMatchesReferenceSmoke pins the hand-written twins: the flat
// engine reproduces the goroutine engine's outcome, failure and event
// stream on a lost-update assert program and a teardown-deadlock program,
// under round-robin and fifty random seeds.
func TestFlatMatchesReferenceSmoke(t *testing.T) {
	cases := []struct {
		name string
		ref  Program
		cp   *CompiledProgram
	}{
		{"executor-twin", executorTestProgram, compiledExecutorTwin()},
		{"deadlock-twin", deadlockProgram, compiledDeadlockTwin()},
	}
	for _, tc := range cases {
		choosers := []func() Chooser{RoundRobin}
		for seed := uint64(0); seed < 50; seed++ {
			seed := seed
			choosers = append(choosers, func() Chooser { return NewRandom(seed) })
		}
		for ci, mk := range choosers {
			want, got, wev, gev := runPair(t, tc.ref, tc.cp, mk, Debug{})
			if !outcomesEqual(want, got) || !failuresEqual(want.Failure, got.Failure) {
				t.Fatalf("%s chooser %d: flat outcome diverged\n got %+v\nwant %+v", tc.name, ci, got, want)
			}
			if wev != gev {
				t.Fatalf("%s chooser %d: event streams diverged\n got:\n%s\nwant:\n%s", tc.name, ci, gev, wev)
			}
		}
	}
}

// TestFlatMatchesReferenceOnGenerated is the fuzzed equivalence property:
// for seed-derived programs covering locks, semaphores, channels, selects
// with defaults, Once, WaitGroups, timers, tickers and context deadlines,
// a compiled run (flat engine) and the closure original (goroutine engine)
// are bit-identical — outcome, failure and event stream — and so is the
// compiled program forced through the blocking bridge (NoFlatEngine).
func TestFlatMatchesReferenceOnGenerated(t *testing.T) {
	f := func(shape uint32, seed uint64) bool {
		ref := genProgram(shape)
		cp := genCompiled(shape)
		mk := func() Chooser { return NewRandom(seed) }
		want, got, wev, gev := runPair(t, ref, cp, mk, Debug{})
		if !outcomesEqual(want, got) || !failuresEqual(want.Failure, got.Failure) || wev != gev {
			t.Logf("shape=%d seed=%d: flat diverged\n got %+v ev:\n%s\nwant %+v ev:\n%s",
				shape, seed, got, gev, want, wev)
			return false
		}
		want, got, wev, gev = runPair(t, ref, cp, mk, Debug{NoFlatEngine: true})
		if !outcomesEqual(want, got) || !failuresEqual(want.Failure, got.Failure) || wev != gev {
			t.Logf("shape=%d seed=%d: blocking bridge diverged\n got %+v\nwant %+v", shape, seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestFlatMatchesReferenceAcrossDebugCombos runs the compiled generated
// programs under both values of the engine switch: on the flat engine and
// bridged onto the reference engine (NoFlatEngine) they must stay
// bit-identical to the closure original on a single-use World.
func TestFlatMatchesReferenceAcrossDebugCombos(t *testing.T) {
	f := func(shape uint32, seed uint64) bool {
		ref := genProgram(shape)
		cp := genCompiled(shape)
		mk := func() Chooser { return NewRandom(seed) }
		want := NewWorld(Options{Chooser: mk()}).Run(ref)
		for _, d := range []Debug{{}, {NoFlatEngine: true}} {
			ex := NewExecutor(Options{Debug: d})
			got := ex.RunWith(mk(), nil, cp)
			ok := outcomesEqual(want, got) && failuresEqual(want.Failure, got.Failure)
			if !ok {
				t.Logf("shape=%d seed=%d debug=%+v: diverged\n got %+v\nwant %+v",
					shape, seed, d, got, want)
			}
			ex.Close()
			if !ok {
				return false
			}
		}
		// Replay the reference trace through the flat engine: same trace
		// back, no divergence.
		rep := NewReplay(want.Trace)
		ex := NewExecutor(Options{})
		defer ex.Close()
		out := ex.RunWith(rep, nil, cp)
		if rep.Failed() || !out.Trace.Equal(want.Trace) {
			t.Logf("shape=%d seed=%d: flat replay diverged (failed=%v)", shape, seed, rep.Failed())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFlatCountersFire pins that the StepStats counters are live: flat
// dispatches count FlatSteps, and NoFlatEngine routes through the bridge,
// counting FlatFallbacks and no flat steps.
func TestFlatCountersFire(t *testing.T) {
	cp := compiledExecutorTwin()

	ex := NewExecutor(Options{Chooser: RoundRobin()})
	ex.Run(cp)
	if st := ex.StepStats(); st.FlatSteps == 0 || st.FlatFallbacks != 0 {
		t.Fatalf("flat run: FlatSteps=%d FlatFallbacks=%d, want steps>0 fallbacks=0", st.FlatSteps, st.FlatFallbacks)
	}
	// A closure program on the same Executor leaves the counter alone.
	before := ex.StepStats().FlatSteps
	ex.Run(executorTestProgram)
	if st := ex.StepStats(); st.FlatSteps != before {
		t.Fatalf("closure run advanced FlatSteps: %d -> %d", before, st.FlatSteps)
	}
	ex.Close()

	exRef := NewExecutor(Options{Chooser: RoundRobin(), Debug: Debug{NoFlatEngine: true}})
	defer exRef.Close()
	out := exRef.Run(cp)
	if out.Failure != nil {
		t.Fatalf("bridged run failed: %v", out.Failure)
	}
	if st := exRef.StepStats(); st.FlatFallbacks != 1 || st.FlatSteps != 0 {
		t.Fatalf("bridged run: FlatSteps=%d FlatFallbacks=%d, want 0 and 1", st.FlatSteps, st.FlatFallbacks)
	}
}

// TestFlatMisusePanics pins the misuse guard: an operand closure that
// calls a blocking closure-API method suspends outside a compiled resume
// point — the flat thread has no goroutine to park, so the substrate
// panics with a diagnostic instead of deadlocking.
func TestFlatMisusePanics(t *testing.T) {
	p := NewBuilder()
	mn := p.Main()
	mn.Let(func(t *Thread) int {
		t.Yield() // blocking closure call inside a compiled operand
		return 0
	})
	cp := p.Build()

	ex := NewExecutor(Options{Chooser: RoundRobin()})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("misuse did not panic")
		}
		msg, ok := r.(misuseError)
		if !ok || !strings.Contains(string(msg), "flat-engine thread") {
			t.Fatalf("misuse panicked with %v, want the flat-engine diagnostic", r)
		}
	}()
	ex.Run(cp)
}
