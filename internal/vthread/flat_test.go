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
	nWorkers, arms := genPlan(shape)
	acksWanted := genAcks(nWorkers, arms)
	m := p.Mutex("m")
	v := p.Var("v", 0)
	s := p.Sem("s", 1)
	a := p.Chan("a", 2)
	b := p.Chan("b", 2)
	g := p.WaitGroup("g")
	once := p.Once("o")
	at := p.Atomic("at", 0)
	arr := p.Array("arr", 4)
	cell := p.Cell(0)
	cv := p.Cond("cv")
	ack := p.Cond("ack")
	flag := p.Var("flag", 0)
	acks := p.Var("acks", 0)
	bar := p.Barrier("bar", nWorkers)
	c := p.Chan("c", 1)
	closeOnce := p.Once("oc")
	ref := p.Ref("r")

	// All workers run the same seed-derived mix, so one body serves them
	// all (runtime-varying names evaluate t.ID() per thread).
	wk := p.Body(0, 0)
	ret := wk.Let(0)
	for op, arm := range arms {
		switch arm {
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
			wk.Set(ret, op%2)
		case 6:
			wk.Sleep(func(t *Thread) string {
				return fmt.Sprintf("nap/%d/%d", t.ID(), op)
			}, int64(op%3))
			tk := wk.NewTicker(func(t *Thread) string {
				return fmt.Sprintf("tick/%d/%d", t.ID(), op)
			}, 2)
			wk.Recv(tk)
			wk.TickerStop(tk)
		case 7:
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
		case 8:
			x := wk.LoadA(at)
			swapped := wk.CAS(at, x, func(t *Thread) int { return t.Reg(x) + 1 })
			wk.If(swapped, func() {
				wk.StoreA(at, func(t *Thread) int { return t.Reg(x) + 2 })
			})
			y := wk.LoadA(at)
			wk.If(func(t *Thread) bool { return t.Reg(y)%2 == 0 }, func() { wk.Yield() })
		case 9:
			k := op%3 + 1
			n := wk.Let(0)
			slot := func(t *Thread) int { return t.Reg(n) - 1 }
			wk.While(func(t *Thread) bool { return t.Reg(n) < 4 }, func() {
				wk.Set(n, func(t *Thread) int { return t.Reg(n) + 1 })
				wk.If(func(t *Thread) bool { return t.Reg(n) > k }, func() { wk.Break() })
				x := wk.Get(arr, slot)
				wk.If(func(t *Thread) bool { return t.Reg(x)%2 == 1 }, func() { wk.Yield() })
				wk.SetAt(arr, slot, func(t *Thread) int { return t.Reg(x) + 1 })
			})
			wk.SetCell(cell, func(t *Thread) int { return t.Cell(cell) + t.Reg(n) })
			wk.If(func(t *Thread) bool { return t.Cell(cell)%2 == 0 }, func() { wk.Yield() })
			wk.Assert(func(t *Thread) bool { return t.Reg(n) == k+1 }, "loop left at %d, want %d", n, k+1)
		case genCondArm:
			wk.Lock(m)
			f := wk.Load(flag)
			wk.While(func(t *Thread) bool { return t.Reg(f) == 0 }, func() {
				wk.Wait(cv, m)
				wk.Set(f, wk.Load(flag))
			})
			wk.AddVar(acks, 1)
			wk.Signal(ack)
			wk.Unlock(m)
		case 11:
			wk.Arrive(bar)
		case 12:
			wk.OnceDo(closeOnce, func() { wk.CloseChan(c) })
			_, ok := wk.Recv(c)
			wk.If(ok, func() {
				wk.Fail("closed channel delivered a value")
			})
		case 13:
			tm := wk.After(func(t *Thread) string {
				return fmt.Sprintf("sel/%d/%d", t.ID(), op)
			}, int64(op%2)+1)
			idx, _, _ := wk.Select([]SCase{RecvC(a), RecvC(tm)}, false)
			wk.If(func(t *Thread) bool { return t.Reg(idx) == 0 }, func() { wk.Yield() })
		case 14:
			tm := wk.NewTimer(func(t *Thread) string {
				return fmt.Sprintf("tm/%d/%d", t.ID(), op)
			}, int64(op%2))
			armed := wk.TimerStop(tm)
			wk.If(func(t *Thread) bool { return t.Reg(armed) == 0 }, func() { wk.Recv(tm) })
		default:
			dm := wk.NewMutex(func(t *Thread) string {
				return fmt.Sprintf("dm/%d/%d", t.ID(), op)
			})
			wk.Lock(dm)
			wk.Unlock(dm)
			if op%2 == 0 {
				wk.DestroyMutex(dm)
			} else {
				wk.RefStore(ref, dm)
				r := wk.RefLoad(ref)
				wk.Lock(r)
				wk.AddVar(v, 1)
				wk.Unlock(r)
			}
		}
	}
	wk.WGDone(g)
	wk.If(ret, func() { wk.Return() })
	wk.Yield()

	mn := p.Main()
	mn.WGAdd(g, nWorkers)
	mn.Send(a, 1)
	mn.Send(b, 2)
	hs := make([]OReg, 0, nWorkers)
	for i := 0; i < nWorkers; i++ {
		hs = append(hs, mn.Spawn(wk))
	}
	if acksWanted > 0 {
		mn.Lock(m)
		mn.Store(flag, 1)
		mn.Broadcast(cv)
		n := mn.Load(acks)
		mn.While(func(t *Thread) bool { return t.Reg(n) < acksWanted }, func() {
			mn.Wait(ack, m)
			mn.Set(n, mn.Load(acks))
		})
		mn.Unlock(m)
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
func runPair(t *testing.T, ref Program, got Runnable, mk func() Chooser) (wo, go_ *Outcome, wev, gev string) {
	t.Helper()
	exRef := NewExecutor(Options{})
	defer exRef.Close()
	exGot := NewExecutor(Options{})
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
			want, got, wev, gev := runPair(t, tc.ref, tc.cp, mk)
			if !outcomesEqual(want, got) || !failuresEqual(want.Failure, got.Failure) {
				t.Fatalf("%s chooser %d: flat outcome diverged\n got %+v\nwant %+v", tc.name, ci, got, want)
			}
			if wev != gev {
				t.Fatalf("%s chooser %d: event streams diverged\n got:\n%s\nwant:\n%s", tc.name, ci, gev, wev)
			}
		}
	}
}

// generatedShapes is the fixed shape sweep: across shapes
// 0..generatedShapes-1 every arm of the op switch runs first under each
// worker count, and second after most other arms.
// TestFlatMatchesReferenceOnGenerated compares each of them, and
// TestRegistryOpcodesCovered counts what they use as covered.
const generatedShapes = genArms * genArms

// generatedSeeds are the random-chooser seeds the fixed sweep runs each
// shape under.
var generatedSeeds = []uint64{1, 2}

// TestFlatMatchesReferenceOnGenerated is the equivalence property over the
// generated pair: for every shape of the fixed sweep under generatedSeeds,
// and for random shapes and seeds, a compiled run (flat engine) and the
// closure original (goroutine engine) are bit-identical — outcome, failure
// and event stream — and so is the compiled program run through the
// blocking bridge (AsProgram), and the trace the flat engine recorded
// replays on the closure original to the same trace and failure.
func TestFlatMatchesReferenceOnGenerated(t *testing.T) {
	for shape := uint32(0); shape < generatedShapes; shape++ {
		for _, seed := range generatedSeeds {
			if !generatedMatches(t, shape, seed) {
				t.Fatalf("shape=%d seed=%d: see log", shape, seed)
			}
		}
	}
	f := func(shape uint32, seed uint64) bool { return generatedMatches(t, shape, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// generatedMatches runs one shape of the generated pair under one random
// seed on the three paths TestFlatMatchesReferenceOnGenerated compares,
// logging the first divergence.
func generatedMatches(t *testing.T, shape uint32, seed uint64) bool {
	ref := genProgram(shape)
	cp := genCompiled(shape)
	mk := func() Chooser { return NewRandom(seed) }
	want, got, wev, gev := runPair(t, ref, cp, mk)
	if !outcomesEqual(want, got) || !failuresEqual(want.Failure, got.Failure) || wev != gev {
		t.Logf("shape=%d seed=%d: flat diverged\n got %+v ev:\n%s\nwant %+v ev:\n%s",
			shape, seed, got, gev, want, wev)
		return false
	}
	rep := NewReplay(got.Trace.Clone())
	out := NewWorld(Options{Chooser: rep}).Run(ref)
	if rep.Failed() || !out.Trace.Equal(got.Trace) || !failuresEqual(out.Failure, got.Failure) {
		t.Logf("shape=%d seed=%d: flat witness did not replay on the closure original (diverged=%v)\nflat %v %v\nref  %v %v",
			shape, seed, rep.Failed(), got.Trace, got.Failure, out.Trace, out.Failure)
		return false
	}
	want, got, wev, gev = runPair(t, ref, AsProgram(cp), mk)
	if !outcomesEqual(want, got) || !failuresEqual(want.Failure, got.Failure) || wev != gev {
		t.Logf("shape=%d seed=%d: blocking bridge diverged\n got %+v\nwant %+v", shape, seed, got, want)
		return false
	}
	return true
}

// TestFlatMatchesReferenceAcrossDebugCombos runs the compiled generated
// programs on both engines of an Executor: on the flat engine and bridged
// onto the reference engine (AsProgram) they must stay bit-identical to the
// closure original on a single-use World.
func TestFlatMatchesReferenceAcrossDebugCombos(t *testing.T) {
	f := func(shape uint32, seed uint64) bool {
		ref := genProgram(shape)
		cp := genCompiled(shape)
		mk := func() Chooser { return NewRandom(seed) }
		want := NewWorld(Options{Chooser: mk()}).Run(ref)
		for _, engine := range Engines {
			ex := NewExecutor(Options{})
			got := ex.RunWith(mk(), nil, engine.Of(cp))
			ok := outcomesEqual(want, got) && failuresEqual(want.Failure, got.Failure)
			if !ok {
				t.Logf("shape=%d seed=%d %s: diverged\n got %+v\nwant %+v",
					shape, seed, engine.Name, got, want)
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

// TestFlatCountersFire pins that the engine is chosen by the program's type:
// flat dispatches count FlatSteps, and a closure program — the compiled
// program's AsProgram bridge included — leaves the counter alone.
func TestFlatCountersFire(t *testing.T) {
	cp := compiledExecutorTwin()

	ex := NewExecutor(Options{Chooser: RoundRobin()})
	defer ex.Close()
	ex.Run(cp)
	if st := ex.StepStats(); st.FlatSteps == 0 {
		t.Fatal("flat run: FlatSteps=0, want steps > 0")
	}
	for _, prog := range []Program{executorTestProgram, AsProgram(cp)} {
		before := ex.StepStats().FlatSteps
		if out := ex.Run(prog); out.Failure != nil {
			t.Fatalf("closure run failed: %v", out.Failure)
		}
		if st := ex.StepStats(); st.FlatSteps != before {
			t.Fatalf("closure run advanced FlatSteps: %d -> %d", before, st.FlatSteps)
		}
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
