package vthread

import (
	"fmt"
	"slices"
	"testing"

	"sctbench/internal/sched"
)

// The enabled-set oracle. The World keeps its enabled set across scheduling
// points and re-evaluates only the threads that can have changed
// (World.syncEnabled). The whole scan it replaced — every thread's
// enabledness evaluated afresh — lives on here, as the reference the
// maintained set is compared with at every scheduling point through the
// World's test hook enabledCheck.

// scanEnabled is that whole scan: the enabled threads in id order, and the
// number of live program threads, computed from the thread table alone —
// none of the World's bookkeeping (enabled, seen, the conditional list,
// live, the per-thread flags) is read.
func scanEnabled(w *World) (enabled []ThreadID, live int) {
	for _, t := range w.threads {
		if !t.isClock && t.state != stateExited {
			live++
		}
	}
	for _, t := range w.threads {
		if t.state != stateParked {
			continue
		}
		on, _ := t.pending.enabled(w)
		if t.pending.kind == opTimerFire {
			// enabled answers this one from World.live; the oracle must not.
			on = live > 0 && w.clk.nextFireable() != nil
		}
		if on {
			enabled = append(enabled, t.id)
		}
	}
	return enabled, live
}

// InstallEnabledOracle makes every scheduling point of every later run of e
// compare the maintained enabled set with scanEnabled, reporting each
// difference through report (which may be called from a virtual thread's
// goroutine on the reference engine, so it must not be t.Fatal). Exported to
// the external test package, whose registry sweep cannot reach the hook.
func InstallEnabledOracle(e *Executor, report func(string)) {
	e.w.enabledCheck = func(w *World) {
		want, live := scanEnabled(w)
		if !slices.Equal(w.enabled, want) || w.live != live {
			report(fmt.Sprintf("step %d after T%d: maintained enabled set %v (live %d), whole scan %v (live %d)",
				len(w.trace), w.last, w.enabled, w.live, want, live))
		}
	}
}

// branchChooser replays a DFS prefix: at step i it takes the branch[i]-th
// choice of the canonical order (clamped to the choices there are), and the
// canonical first choice past the prefix — the path a branch key
// (sched.CompareBranchKeys) names.
func branchChooser(branch []int) Chooser {
	return ChooserFunc(func(ctx Context) ThreadID {
		order := sched.CanonicalOrder(ctx.Enabled, ctx.Last, ctx.NumThreads)
		i := 0
		if ctx.Step < len(branch) {
			i = min(branch[ctx.Step], len(order)-1)
		}
		return order[i]
	})
}

// Engines runs a program on both engines: as given (the flat engine, for a
// compiled program) and through its AsProgram bridge (the reference engine).
// A closure program runs on the reference engine both times. Exported to the
// external test package's registry sweeps.
var Engines = []struct {
	Name string
	Of   func(Runnable) Runnable
}{
	{"as given", func(p Runnable) Runnable { return p }},
	{"reference", func(p Runnable) Runnable { return AsProgram(p) }},
}

// OracleChoosers are the three schedules each program of a sweep runs
// under: round-robin, seeded random, and a replayed DFS prefix that takes
// the second canonical choice at every third point.
func OracleChoosers() map[string]func() Chooser {
	branch := make([]int, 300)
	for i := range branch {
		if i%3 == 0 {
			branch[i] = 1
		}
	}
	return map[string]func() Chooser{
		"roundrobin": RoundRobin,
		"random":     func() Chooser { return NewRandom(7) },
		"dfsprefix":  func() Chooser { return branchChooser(branch) },
	}
}

// TestEnabledOracleGeneratedShapes sweeps the genCompiled shapes — selects,
// timers, tickers, context cancellation, Once, WaitGroup, semaphores — so the
// clock pseudo-thread and mid-run spawns are covered, on both engines.
func TestEnabledOracleGeneratedShapes(t *testing.T) {
	for _, engine := range Engines {
		for name, mk := range OracleChoosers() {
			ex := NewExecutor(Options{MaxSteps: 2000})
			InstallEnabledOracle(ex, func(msg string) { t.Errorf("%s %s: %s", name, engine.Name, msg) })
			points := 0
			for shape := uint32(0); shape < 400 && !t.Failed(); shape++ {
				out := ex.RunWith(mk(), nil, engine.Of(genCompiled(shape*2654435761)))
				points += len(out.Trace)
			}
			ex.Close()
			if points == 0 {
				t.Fatalf("%s: no scheduling point was checked", name)
			}
		}
	}
}

// oracleReuseA and oracleReuseB are two programs of different shape for the
// reuse test: A parks six threads on a mutex, a semaphore, a condvar and
// joins; B has
// two workers on a channel and a timer, so the ids A's pooled structs held
// mean something else.
func oracleReuseA() *CompiledProgram {
	p := NewBuilder()
	m := p.Mutex("m")
	c := p.Cond("c")
	ready := p.Sem("ready", 0)
	wk := p.Body(0, 0)
	wk.Lock(m)
	wk.V(ready)
	wk.Wait(c, m)
	wk.Unlock(m)
	mn := p.Main()
	var hs []OReg
	for i := 0; i < 5; i++ {
		hs = append(hs, mn.Spawn(wk))
	}
	for range hs {
		mn.P(ready)
	}
	mn.Lock(m) // the last worker holds m until it is waiting
	mn.Broadcast(c)
	mn.Unlock(m)
	for _, h := range hs {
		mn.Join(h)
	}
	return p.Build()
}

func oracleReuseB() *CompiledProgram {
	p := NewBuilder()
	ch := p.Chan("ch", 1)
	wk := p.Body(0, 0)
	wk.Send(ch, 1)
	mn := p.Main()
	a := mn.Spawn(wk)
	b := mn.Spawn(wk)
	mn.Sleep("nap", 2)
	mn.Recv(ch)
	mn.Recv(ch)
	mn.Join(a)
	mn.Join(b)
	return p.Build()
}

// TestEnabledOracleExecutorReuse: one Executor alternates between two
// programs. Pooled Thread structs come back under other ids and at other
// operations; a membership flag or a list link carried over from the
// previous run would show as a thread listed that is not enabled, or the
// other way round.
func TestEnabledOracleExecutorReuse(t *testing.T) {
	for _, engine := range Engines {
		ex := NewExecutor(Options{MaxSteps: 2000})
		InstallEnabledOracle(ex, func(msg string) { t.Errorf("%s: %s", engine.Name, msg) })
		for round := 0; round < 6; round++ {
			for name, mk := range OracleChoosers() {
				for i, prog := range []*CompiledProgram{oracleReuseA(), oracleReuseB()} {
					out := ex.RunWith(mk(), nil, engine.Of(prog))
					if out.Failure != nil || out.StepLimitHit {
						t.Fatalf("%s round %d %s program %d: failure %v, step limit %v",
							engine.Name, round, name, i, out.Failure, out.StepLimitHit)
					}
				}
			}
		}
		ex.Close()
	}
}

// oracleCaught is what a mutation test's report panics with to end the run
// at the first difference: a corrupted World cannot be run further.
type oracleCaught string

// runMutated runs oracleReuseA on a fresh flat Executor under round-robin
// with the oracle installed and mutate called first at every scheduling
// point, and reports whether the oracle caught a difference.
func runMutated(mutate func(w *World)) (caught bool) {
	ex := NewExecutor(Options{MaxSteps: 2000})
	InstallEnabledOracle(ex, func(msg string) { panic(oracleCaught(msg)) })
	check := ex.w.enabledCheck
	ex.w.enabledCheck = func(w *World) {
		check(w)
		mutate(w)
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(oracleCaught); !ok {
				panic(r)
			}
			caught = true
		}
	}()
	ex.RunWith(RoundRobin(), nil, oracleReuseA())
	ex.Close()
	return false
}

// TestEnabledOracleCatchesSeededMutations shows the oracle is sensitive to
// the three mistakes the bookkeeping invites. The hook corrupts the World
// the way the mistake would have left it; the oracle must object at a later
// scheduling point. With no mutation the same run is clean.
func TestEnabledOracleCatchesSeededMutations(t *testing.T) {
	if runMutated(func(*World) {}) {
		t.Fatal("the unmutated run differs from the whole scan")
	}
	mutations := map[string]func(w *World){
		// A join waiter that is not re-evaluated: taken off the conditional
		// list while still parked at its join.
		"skip re-evaluating a join waiter": func(w *World) {
			for t := w.condHead; t != nil; t = t.condNext {
				if t.pending.kind == opJoin {
					w.condUnlink(t)
					return
				}
			}
		},
		// A spawned thread that is never taken in: the watermark runs one
		// ahead of the thread table.
		"forget a spawned thread": func(w *World) {
			if len(w.threads) == 2 && w.seen == 2 {
				w.seen = 3
			}
		},
		// A membership flag that says "listed" on a thread that is not — what
		// a pooled struct would carry over if newThread did not clear it.
		"stale flag after reuse": func(w *World) {
			for _, t := range w.threads {
				if t.state == stateParked && t.inCond && !t.inEnabled {
					t.inEnabled = true
					return
				}
			}
		},
	}
	for name, mutate := range mutations {
		if !runMutated(mutate) {
			t.Errorf("mutation %q: the oracle saw no difference", name)
		}
	}
}

// TestChooserMisusePanics pins the validation the sorted lookup now does: a
// chooser that returns a thread outside the enabled set — disabled, exited
// or never created — panics with the diagnostic IsChooserMisuse recognises.
func TestChooserMisusePanics(t *testing.T) {
	for _, bad := range []ThreadID{1, 77, -5} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !IsChooserMisuse(msg) {
					t.Errorf("chooser returning %d: panic %q, want the chooser-misuse diagnostic", bad, msg)
				}
			}()
			ex := NewExecutor(Options{})
			// Thread 1 is parked on the mutex main holds, so only main is enabled.
			ex.RunWith(ChooserFunc(func(ctx Context) ThreadID {
				if ctx.Step == 3 {
					return bad
				}
				return ctx.Enabled[0]
			}), nil, Program(func(t *Thread) {
				m := t.NewMutex("m")
				m.Lock(t)
				t.Spawn(func(u *Thread) { m.Lock(u); m.Unlock(u) })
				t.Yield()
				t.Yield()
				m.Unlock(t)
			}))
			t.Errorf("chooser returning %d: no panic", bad)
		}()
	}
}
