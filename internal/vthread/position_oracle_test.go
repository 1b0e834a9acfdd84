package vthread

import (
	"fmt"
	"testing"

	"sctbench/internal/sched"
)

// The position oracle. Every member of the World's enabled set carries its
// index in it (Thread.pos), and a thread-choice point reads off those where the
// canonical order starts, whether the previous thread is still enabled and the
// choice's position (nextStep, choose). The binary searches that replaced
// them, sched.CanonicalStart and sched.CanonicalPosition, live on here as the
// reference those three answers are compared with at every thread-choice
// point, through the World's hook positionCheck.

// InstallPositionOracle makes every thread-choice point of every later run of
// e compare what the World read off the positions with the searches over its
// enabled set, reporting each difference through report (which may be called
// from a virtual thread's goroutine on the reference engine, so it must not
// be t.Fatal). Exported to the external test package, whose registry sweep
// cannot reach the hook. It returns the number of points checked so far.
func InstallPositionOracle(e *Executor, report func(string)) (checked func() int) {
	n := 0
	e.w.positionCheck = func(w *World, start int, lastEnabled bool, choice ThreadID, pos int) {
		n++
		wantStart, wantLast := sched.CanonicalStart(w.enabled, w.last)
		wantPos := sched.CanonicalPosition(w.enabled, wantStart, choice)
		if start != wantStart || lastEnabled != wantLast || pos != wantPos {
			report(fmt.Sprintf("step %d after T%d, T%d chosen from %v: start %d, last enabled %v, position %d; the searches say %d, %v, %d",
				len(w.trace), w.last, choice, w.enabled, start, lastEnabled, pos, wantStart, wantLast, wantPos))
		}
	}
	return func() int { return n }
}

// TestPositionOracleGeneratedShapes sweeps the genCompiled shapes — selects,
// timers, tickers, context cancellation, mid-run spawns, the clock
// pseudo-thread joining and leaving the set — under the three oracle
// choosers, on both engines (each shape and its AsProgram bridge).
func TestPositionOracleGeneratedShapes(t *testing.T) {
	for _, engine := range Engines {
		for name, mk := range OracleChoosers() {
			ex := NewExecutor(Options{MaxSteps: 2000})
			checked := InstallPositionOracle(ex, func(msg string) { t.Errorf("%s %s: %s", name, engine.Name, msg) })
			for shape := uint32(0); shape < 400 && !t.Failed(); shape++ {
				ex.RunWith(mk(), nil, engine.Of(genCompiled(shape*2654435761)))
			}
			ex.Close()
			if checked() == 0 {
				t.Fatalf("%s %s: no thread-choice point was checked", name, engine.Name)
			}
		}
	}
}

// TestPositionOracleRunFromWalks: a run continued from a saved prefix state
// gets its positions from snapshot.restore, not from the appends and relists
// of a run from the start. Depth-first walks that restore at every depth —
// jumpy, a snapshot at every step — on snapProgram and the genCompiled shapes.
func TestPositionOracleRunFromWalks(t *testing.T) {
	oracle := func(name string) func(*Executor, *walker, *walker) {
		return func(ex *Executor, a, b *walker) {
			jumpy(ex, a, b)
			snapshotEveryStep(ex)
			InstallPositionOracle(ex, func(msg string) { t.Errorf("%s: %s", name, msg) })
		}
	}
	diff, st := walkPair(snapProgram(), Options{}, 2000, oracle("snapProgram"))
	if diff != "" {
		t.Fatalf("snapProgram: %s", diff)
	}
	resumed := st.RunsResumed
	for shape := uint32(0); shape < 200 && !t.Failed(); shape++ {
		diff, st := walkPair(genCompiled(shape*2654435761), Options{MaxSteps: 2000}, 40, oracle(fmt.Sprintf("shape %d", shape)))
		if diff != "" {
			t.Fatalf("shape %d: %s", shape, diff)
		}
		resumed += st.RunsResumed
	}
	if resumed < 1000 {
		t.Errorf("only %d runs were continued from a saved state", resumed)
	}
}

// positionsCaught runs the positions oracle with mutate called on the World
// right after every point's enabled set is brought up to date, before the
// choice (and restored, when set, right after a RunFrom restore), and
// reports whether the oracle objected. The hooks corrupt the positions the
// way the mistake would have left them; a mutation whose corruption the run
// never reads is not caught, so each is applied over a whole depth-first walk
// of a program that takes threads out of the middle of the set.
func positionsCaught(mutate func(w *World), restored func(w *World)) (caught bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(oracleCaught); !ok {
				panic(r)
			}
			caught = true
		}
	}()
	walkPair(oracleReuseA(), Options{MaxSteps: 2000}, 300, func(ex *Executor, a, b *walker) {
		jumpy(ex, a, b)
		InstallPositionOracle(ex, func(msg string) { panic(oracleCaught(msg)) })
		ex.w.enabledCheck = mutate
		ex.w.restoreCheck = restored
	})
	return false
}

// TestPositionOracleCatchesSeededMutations shows the oracle is sensitive to
// the three places the positions are written. Each mutation remembers every
// thread's position at the previous point (prev) and puts back what a missing
// write would have left.
func TestPositionOracleCatchesSeededMutations(t *testing.T) {
	if positionsCaught(func(*World) {}, nil) {
		t.Fatal("the unmutated walk differs from the searches")
	}
	// remember wraps a mutation with the bookkeeping of what every thread
	// struct's position and membership were at the previous point.
	remember := func(mutate func(w *World, prev map[*Thread]int, was map[*Thread]bool)) func(*World) {
		prev, was := map[*Thread]int{}, map[*Thread]bool{}
		return func(w *World) {
			mutate(w, prev, was)
			for _, t := range w.threads {
				prev[t], was[t] = t.pos, t.inEnabled
			}
		}
	}
	mutations := map[string]struct {
		mutate   func(*World)
		restored func(*World)
	}{
		// syncEnabled relisting the members without telling them their new
		// index: a member that stayed keeps the index it had.
		"a relist that skips the index": {mutate: remember(func(w *World, prev map[*Thread]int, was map[*Thread]bool) {
			for _, id := range w.enabled {
				if t := w.threads[id]; was[t] {
					t.pos = prev[t]
				}
			}
		})},
		// setEnabled appending a thread that joins at the end of the set
		// without writing its index: it keeps what it had before it joined
		// (0 for a struct fresh from the allocator).
		"an append that leaves it stale": {mutate: remember(func(w *World, prev map[*Thread]int, was map[*Thread]bool) {
			if n := len(w.enabled); n > 0 {
				if t := w.threads[w.enabled[n-1]]; !was[t] {
					t.pos = prev[t]
				}
			}
		})},
		// snapshot.restore putting the saved set back without the fix-up:
		// every struct keeps the position the previous run left in it.
		"a restore without the index fix-up": func() (m struct{ mutate, restored func(*World) }) {
			last := map[*Thread]int{}
			m.mutate = func(w *World) {
				for _, t := range w.threads {
					last[t] = t.pos
				}
			}
			m.restored = func(w *World) {
				for _, t := range w.threads {
					t.pos = last[t]
				}
			}
			return m
		}(),
	}
	for name, m := range mutations {
		if !positionsCaught(m.mutate, m.restored) {
			t.Errorf("mutation %q: the oracle saw no difference", name)
		}
	}
}

// A failed compiled assertion retires its thread by returning on the flat
// engine and unwinds through failNow on the reference engine. The two
// programs below fail where the two routes could part: in a spawned child's
// invisible prefix, which the spawner outlives (it spawns another child and
// runs more invisible code before the failure ends the run), and while the
// failing thread holds a mutex other threads are queued on, which it never
// releases.
func assertInChildPrefix() *CompiledProgram {
	p := NewBuilder()
	v := p.Var("v", 0)
	bad := p.Body(1, 0)
	x := bad.Let(func(t *Thread) int { return t.Reg(0) * 2 })
	bad.Assert(func(t *Thread) bool { return t.Reg(x) < 2 }, "child %d doubled to %d", bad.Arg(0), x)
	bad.Store(v, x)
	good := p.Body(0, 0)
	good.AddVar(v, 1)
	mn := p.Main()
	mn.AddVar(v, 1)
	a := mn.Spawn(good)
	b := mn.Spawn(bad, 1)
	n := mn.Let(3)
	mn.SetName(func(t *Thread) string { return fmt.Sprintf("main-%d", t.Reg(n)) })
	c := mn.Spawn(good)
	mn.Join(a)
	mn.Join(b)
	mn.Join(c)
	return p.Build()
}

func assertHoldingLock() *CompiledProgram {
	p := NewBuilder()
	m := p.Mutex("m")
	v := p.Var("v", 0)
	wk := p.Body(0, 0)
	wk.Lock(m)
	x := wk.AddVar(v, 1)
	wk.Assert(func(t *Thread) bool { return t.Reg(x) < 2 }, "second in: %d", x)
	wk.Unlock(m)
	mn := p.Main()
	hs := []OReg{mn.Spawn(wk), mn.Spawn(wk), mn.Spawn(wk)}
	for _, h := range hs {
		mn.Join(h)
	}
	return p.Build()
}

func TestFailedAssertionFlatMatchesReference(t *testing.T) {
	for name, mk := range map[string]func() *CompiledProgram{
		"in a child's invisible prefix": assertInChildPrefix,
		"holding a lock":                assertHoldingLock,
	} {
		choosers := []func() Chooser{RoundRobin}
		for seed := uint64(0); seed < 40; seed++ {
			choosers = append(choosers, func() Chooser { return NewRandom(seed) })
		}
		failed := 0
		for ci, ch := range choosers {
			cp := mk()
			want, got, wev, gev := runPair(t, AsProgram(cp), cp, ch)
			if !outcomesEqual(want, got) || !failuresEqual(want.Failure, got.Failure) {
				t.Fatalf("%s, chooser %d: flat %s\nreference %s", name, ci, describe(got), describe(want))
			}
			if wev != gev {
				t.Fatalf("%s, chooser %d: event streams diverged\n flat:\n%s\nreference:\n%s", name, ci, gev, wev)
			}
			if got.Failure != nil && got.Failure.Kind == FailAssert {
				failed++
			}
		}
		if failed < len(choosers)/2 {
			t.Errorf("%s: the assertion failed in only %d of %d runs", name, failed, len(choosers))
		}
	}
}
