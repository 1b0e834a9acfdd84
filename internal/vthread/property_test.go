package vthread

import (
	"fmt"
	"testing"
	"testing/quick"

	"sctbench/internal/sched"
)

// genArms is the number of arms of the generated programs' op switch.
const genArms = 16

// genPlan is a shape seed's program plan, shared by genProgram and
// genCompiled: the worker count and the op mix every worker runs, one arm
// per op read off the seed's base-genArms digits.
func genPlan(shape uint32) (nWorkers int, arms []int) {
	nWorkers = int(shape%3) + 1
	ops := int((shape/4)%5) + 1
	mix := shape
	for o := 0; o < ops; o++ {
		arms = append(arms, int(mix%genArms))
		mix /= genArms
	}
	return nWorkers, arms
}

// genCondArm is the arm whose waiters main releases and then waits for.
const genCondArm = 10

// genAcks is how many condvar acknowledgements main waits for: one per
// worker per genCondArm op.
func genAcks(nWorkers int, arms []int) int {
	n := 0
	for _, a := range arms {
		if a == genCondArm {
			n += nWorkers
		}
	}
	return n
}

// genProgram builds a deterministic small concurrent program from a shape
// seed: a few workers running the same seed-derived mix of locked and
// unlocked counter traffic, semaphore hand-offs, yields, virtual-time
// sleeps and timers, ticker receives, context-deadline waits, selects with
// and without a default, Once bodies, atomics, array traffic in a loop left
// by a break, a shared invisible cell, condition variables, a barrier, a
// channel close, and a dynamic mutex that is either destroyed or published
// through a reference. The arms from 8 on feed every value they read into
// a branch, a loop trip count or an assertion, so an instruction that
// computes a wrong value changes the trace.
//
// It is bug-free and deadlock-free by construction, so any reported
// failure is a substrate defect:
//   - every timer wait is on a fireable timer, and a stopped timer is
//     drained only when Stop reports that it already fired;
//   - the select without a default has a timer case;
//   - condvar waiters loop on a flag that main sets, under the mutex,
//     before its WaitGroup wait, and then broadcasts; main then waits the
//     same way for every waiter's signalled acknowledgement;
//   - the barrier has one party per worker, and every worker runs the
//     same mix;
//   - the channel close runs inside a Once, on a channel no one sends on;
//   - a mutex published through the reference is never destroyed;
//   - a worker returns early only after its WaitGroup Done.
func genProgram(shape uint32) Program {
	nWorkers, arms := genPlan(shape)
	acksWanted := genAcks(nWorkers, arms)
	return func(t0 *Thread) {
		m := t0.NewMutex("m")
		v := t0.NewVar("v", 0)
		s := t0.NewSem("s", 1)
		// Go-idiom surface: two channels fed by a mix of sends, selects and
		// try-ops, a WaitGroup and a Once, so the fast-path and executor
		// equivalence properties cover the multi-object ops (including the
		// case-decision points of selects with several ready cases).
		a := t0.NewChan("a", 2)
		b := t0.NewChan("b", 2)
		g := t0.NewWaitGroup("g")
		once := t0.NewOnce("o")
		at := t0.NewAtomic("at", 0)
		arr := t0.NewArray("arr", 4)
		cell := 0
		cv := t0.NewCond("cv")
		ack := t0.NewCond("ack")
		flag := t0.NewVar("flag", 0)
		acks := t0.NewVar("acks", 0)
		bar := t0.NewBarrier("bar", nWorkers)
		c := t0.NewChan("c", 1)
		closeOnce := t0.NewOnce("oc")
		ref := NewRef[*Mutex](t0, "r", nil)
		g.Add(t0, nWorkers)
		a.Send(t0, 1)
		b.Send(t0, 2)
		ts := make([]*Thread, 0, nWorkers)
		for i := 0; i < nWorkers; i++ {
			ts = append(ts, t0.Spawn(func(tw *Thread) {
				ret := false
				for o, arm := range arms {
					switch arm {
					case 0:
						m.Lock(tw)
						v.Add(tw, 1)
						m.Unlock(tw)
					case 1:
						v.Add(tw, 1)
					case 2:
						s.P(tw)
						tw.Yield()
						s.V(tw)
					case 3:
						if idx, x, ok := tw.Select([]SelectCase{
							RecvCase(a), RecvCase(b), SendCase(a, o),
						}, true); idx != DefaultCase && ok {
							_ = x
						}
					case 4:
						once.Do(tw, func(ti *Thread) { v.Add(ti, 1) })
						if !a.TrySend(tw, o) {
							b.TryRecv(tw)
						}
					case 5:
						tw.Yield()
						ret = o%2 == 1
					case 6:
						// Virtual time: a sleep, then a ticker received once and
						// stopped. Both waits are on fireable timers, so neither
						// can deadlock under any schedule.
						tw.Sleep(fmt.Sprintf("nap/%d/%d", tw.ID(), o), int64(o%3))
						tk := tw.NewTicker(fmt.Sprintf("tick/%d/%d", tw.ID(), o), 2)
						tk.C().Recv(tw)
						tk.Stop(tw)
					case 7:
						// Context deadlines: a child context under a cancellable
						// parent, waited on until the deadline fires (or, on odd
						// ops, cancelled by hand first).
						p := tw.WithCancel(fmt.Sprintf("cp/%d/%d", tw.ID(), o), nil)
						c := tw.WithTimeout(fmt.Sprintf("cc/%d/%d", tw.ID(), o), p, int64(o%2)+1)
						if o%2 == 1 {
							p.Cancel(tw)
						}
						if _, ok := c.Done().Recv(tw); ok {
							tw.Fail("ctx done channel delivered a value")
						}
					case 8:
						// Atomics: the CAS succeeds unless another worker moved
						// the value since the load, and the last load tells the
						// store's parity from the CAS's.
						x := at.Load(tw)
						if at.CAS(tw, x, x+1) {
							at.Store(tw, x+2)
						}
						if at.Load(tw)%2 == 0 {
							tw.Yield()
						}
					case 9:
						// A loop left by a break, bumping array slots; the trip
						// count feeds the shared cell and an assertion.
						k := o%3 + 1
						n := 0
						for n < 4 {
							n++
							if n > k {
								break
							}
							x := arr.Get(tw, n-1)
							if x%2 == 1 {
								tw.Yield()
							}
							arr.Set(tw, n-1, x+1)
						}
						cell += n
						if cell%2 == 0 {
							tw.Yield()
						}
						tw.Assert(n == k+1, "loop left at %d, want %d", n, k+1)
					case genCondArm:
						m.Lock(tw)
						for flag.Load(tw) == 0 {
							cv.Wait(tw, m)
						}
						acks.Add(tw, 1)
						ack.Signal(tw)
						m.Unlock(tw)
					case 11:
						bar.Arrive(tw)
					case 12:
						closeOnce.Do(tw, func(ti *Thread) { c.Close(ti) })
						if _, ok := c.Recv(tw); ok {
							tw.Fail("closed channel delivered a value")
						}
					case 13:
						// No default: the select blocks until a's buffer or the
						// clock delivers.
						tm := tw.After(fmt.Sprintf("sel/%d/%d", tw.ID(), o), int64(o%2)+1)
						if idx, _, _ := tw.Select([]SelectCase{RecvCase(a), RecvCase(tm)}, false); idx == 0 {
							tw.Yield()
						}
					case 14:
						tm := tw.NewTimer(fmt.Sprintf("tm/%d/%d", tw.ID(), o), int64(o%2))
						if !tm.Stop(tw) {
							tm.C().Recv(tw) // it fired: drain the buffered tick
						}
					default:
						dm := tw.NewMutex(fmt.Sprintf("dm/%d/%d", tw.ID(), o))
						dm.Lock(tw)
						dm.Unlock(tw)
						if o%2 == 0 {
							dm.Destroy(tw)
						} else {
							ref.Store(tw, dm)
							r := ref.Load(tw)
							r.Lock(tw)
							v.Add(tw, 1)
							r.Unlock(tw)
						}
					}
				}
				g.Done(tw)
				if ret {
					return
				}
				tw.Yield()
			}))
		}
		if acksWanted > 0 {
			m.Lock(t0)
			flag.Store(t0, 1)
			cv.Broadcast(t0)
			for acks.Load(t0) < acksWanted {
				ack.Wait(t0, m)
			}
			m.Unlock(t0)
		}
		g.Wait(t0)
		for _, c := range ts {
			t0.Join(c)
		}
	}
}

func runRandom(shape uint32, seed uint64) *Outcome {
	w := NewWorld(Options{Chooser: NewRandom(seed)})
	return w.Run(genProgram(shape))
}

// Property: the delay count of any executed schedule is at least its
// preemption count (§2: DB-bounded schedules are a subset of PB-bounded
// ones), and the preemption count never exceeds the context-switch count.
func TestPropertyCostOrdering(t *testing.T) {
	f := func(shape uint32, seed uint64) bool {
		out := runRandom(shape, seed)
		if out.DC < out.PC {
			t.Logf("DC %d < PC %d on trace %v", out.DC, out.PC, out.Trace)
			return false
		}
		if out.PC > out.Trace.ContextSwitches() {
			t.Logf("PC %d > context switches %d", out.PC, out.Trace.ContextSwitches())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every trace entry is valid for its scheduling point's domain —
// a thread id within the thread count at an ordinary point, a case index
// within the select's case count at a case-decision point — thread 0
// appears first, and generated (bug-free) programs never fail. The domain
// of each point is recorded by a wrapping chooser.
func TestPropertyTraceWellFormed(t *testing.T) {
	type domain struct {
		isCase bool
		n      int
	}
	f := func(shape uint32, seed uint64) bool {
		inner := NewRandom(seed)
		var domains []domain
		audit := ChooserFunc(func(ctx Context) ThreadID {
			for len(domains) <= ctx.Step {
				domains = append(domains, domain{})
			}
			domains[ctx.Step] = domain{isCase: ctx.SelectOf != NoThread, n: ctx.NumThreads}
			return inner.Choose(ctx)
		})
		out := NewWorld(Options{Chooser: audit}).Run(genProgram(shape))
		if out.Buggy() {
			t.Logf("bug-free program failed: %v", out.Failure)
			return false
		}
		if out.StepLimitHit {
			t.Log("generated program hit the step limit")
			return false
		}
		if len(domains) != len(out.Trace) {
			t.Logf("saw %d scheduling points for %d trace entries", len(domains), len(out.Trace))
			return false
		}
		for i, id := range out.Trace {
			d := domains[i]
			if id < 0 || int(id) >= d.n {
				t.Logf("entry %d is %d, out of range of its %d-wide point (case=%v)", i, id, d.n, d.isCase)
				return false
			}
			if !d.isCase && int(id) >= out.Threads {
				t.Logf("trace names thread %d of %d", id, out.Threads)
				return false
			}
		}
		if len(out.Trace) > 0 && out.Trace[0] != 0 {
			t.Logf("first step by %d, want thread 0", out.Trace[0])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: replaying any recorded trace reproduces it exactly, with the
// same costs (deterministic replay is the foundation of SCT).
func TestPropertyReplayRoundTrip(t *testing.T) {
	f := func(shape uint32, seed uint64) bool {
		ref := runRandom(shape, seed)
		rep := NewReplay(ref.Trace)
		out := NewWorld(Options{Chooser: rep}).Run(genProgram(shape))
		if rep.Failed() {
			t.Logf("replay diverged at %d", rep.FailStep())
			return false
		}
		return out.Trace.Equal(ref.Trace) && out.PC == ref.PC && out.DC == ref.DC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the round-robin schedule has zero preemptions and zero delays
// for every generated program — it is the deterministic scheduler delay
// bounding is defined against.
func TestPropertyRoundRobinIsZeroCost(t *testing.T) {
	f := func(shape uint32) bool {
		w := NewWorld(Options{Chooser: RoundRobin()})
		out := w.Run(genProgram(shape))
		if out.PC != 0 || out.DC != 0 {
			t.Logf("round-robin has PC=%d DC=%d", out.PC, out.DC)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the online cost accounting agrees with recomputing the costs
// from the trace via a replay under an independent chooser path.
func TestPropertyCostsStableAcrossReplay(t *testing.T) {
	f := func(shape uint32, seed uint64) bool {
		a := runRandom(shape, seed)
		b := runRandom(shape, seed) // same seed: same schedule
		return a.Trace.Equal(b.Trace) && a.PC == b.PC && a.DC == b.DC &&
			a.SchedPoints == b.SchedPoints && a.MaxEnabled == b.MaxEnabled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: semaphore counts never go negative and mutexes are never
// double-held — checked by instrumenting a hostile random scheduler over
// the generated programs (the substrate enforces these internally; a
// violation would surface as a spurious failure, checked above, or a
// wrong final counter value, checked here).
func TestPropertyLockedCounterConsistent(t *testing.T) {
	f := func(seed uint64, workers uint8, ops uint8) bool {
		n := int(workers%4) + 1
		k := int(ops%4) + 1
		var final int
		var p Program = func(t0 *Thread) {
			m := t0.NewMutex("m")
			v := t0.NewVar("v", 0)
			ts := make([]*Thread, 0, n)
			for i := 0; i < n; i++ {
				ts = append(ts, t0.Spawn(func(tw *Thread) {
					for o := 0; o < k; o++ {
						m.Lock(tw)
						v.Add(tw, 1)
						m.Unlock(tw)
					}
				}))
			}
			for _, c := range ts {
				t0.Join(c)
			}
			final = v.Load(t0)
		}
		out := NewWorld(Options{Chooser: NewRandom(seed)}).Run(p)
		return !out.Buggy() && final == n*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sched.CanonicalOrder over real execution contexts always
// starts with a zero-cost choice (checked against the engine's own
// accounting inside explore; here we cross-check against a live world via
// a wrapper chooser).
func TestPropertyCanonicalFirstChoiceFreeInLiveWorlds(t *testing.T) {
	f := func(shape uint32) bool {
		ok := true
		chooser := ChooserFunc(func(ctx Context) ThreadID {
			order := sched.CanonicalOrder(ctx.Enabled, ctx.Last, ctx.NumThreads)
			if sched.PCStep(ctx.Last, ctx.LastEnabled, order[0]) != 0 {
				ok = false
			}
			dc := sched.DCStep(ctx.Last, order[0], ctx.NumThreads, func(t ThreadID) bool {
				for _, x := range ctx.Enabled {
					if x == t {
						return true
					}
				}
				return false
			})
			if dc != 0 {
				ok = false
			}
			return order[0]
		})
		NewWorld(Options{Chooser: chooser}).Run(genProgram(shape))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
