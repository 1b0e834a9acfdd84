package vthread

import (
	"runtime"
	"testing"
	"time"

	"sctbench/internal/sched"
)

// runRR executes a program once under the deterministic round-robin
// scheduler.
func runRR(t *testing.T, p Program) *Outcome {
	t.Helper()
	w := NewWorld(Options{Chooser: RoundRobin()})
	return w.Run(p)
}

func TestSingleThreadTerminates(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {})
	if out.Buggy() {
		t.Fatalf("empty program reported failure: %v", out.Failure)
	}
	if out.Threads != 1 {
		t.Fatalf("Threads = %d, want 1", out.Threads)
	}
	if len(out.Trace) != 0 {
		t.Fatalf("empty program has trace %v, want none", out.Trace)
	}
}

func TestSpawnAndJoin(t *testing.T) {
	ran := false
	out := runRR(t, func(t0 *Thread) {
		c := t0.Spawn(func(t1 *Thread) { ran = true })
		t0.Join(c)
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	if !ran {
		t.Fatal("child body did not run before join returned")
	}
	if out.Threads != 2 {
		t.Fatalf("Threads = %d, want 2", out.Threads)
	}
}

func TestThreadIDsFollowCreationOrder(t *testing.T) {
	var ids []ThreadID
	runRR(t, func(t0 *Thread) {
		ids = append(ids, t0.ID())
		a := t0.Spawn(func(ta *Thread) {})
		b := t0.Spawn(func(tb *Thread) {})
		ids = append(ids, a.ID(), b.ID())
		t0.Join(a)
		t0.Join(b)
	})
	want := []ThreadID{0, 1, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	// Under any schedule, the critical section must never be entered twice
	// concurrently. We drive with the random chooser over many seeds.
	for seed := uint64(0); seed < 50; seed++ {
		w := NewWorld(Options{Chooser: NewRandom(seed)})
		out := w.Run(Program(func(t0 *Thread) {
			m := t0.NewMutex("m")
			in := 0
			worker := func(tw *Thread) {
				for i := 0; i < 3; i++ {
					m.Lock(tw)
					in++
					tw.Assert(in == 1, "mutual exclusion violated: in=%d", in)
					tw.Yield() // stay in the critical section across a point
					in--
					m.Unlock(tw)
				}
			}
			a := t0.Spawn(worker)
			b := t0.Spawn(worker)
			t0.Join(a)
			t0.Join(b)
		}))
		if out.Buggy() {
			t.Fatalf("seed %d: mutual exclusion violated: %v", seed, out.Failure)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		m := t0.NewMutex("m")
		m.Lock(t0)
		m.Lock(t0) // self-deadlock: non-recursive mutex
	})
	if out.Failure == nil || out.Failure.Kind != FailDeadlock {
		t.Fatalf("Failure = %v, want deadlock", out.Failure)
	}
}

func TestABBADeadlockUnderSomeSchedule(t *testing.T) {
	var program Program = func(t0 *Thread) {
		a := t0.NewMutex("a")
		b := t0.NewMutex("b")
		t1 := t0.Spawn(func(tx *Thread) {
			a.Lock(tx)
			b.Lock(tx)
			b.Unlock(tx)
			a.Unlock(tx)
		})
		t2 := t0.Spawn(func(tx *Thread) {
			b.Lock(tx)
			a.Lock(tx)
			a.Unlock(tx)
			b.Unlock(tx)
		})
		t0.Join(t1)
		t0.Join(t2)
	}
	// Round-robin runs the threads serially: no deadlock.
	if out := runRR(t, program); out.Buggy() {
		t.Fatalf("round-robin should not deadlock, got %v", out.Failure)
	}
	// Some random schedule must interleave the acquisitions and deadlock.
	found := false
	for seed := uint64(0); seed < 200 && !found; seed++ {
		w := NewWorld(Options{Chooser: NewRandom(seed)})
		out := w.Run(program)
		if out.Failure != nil {
			if out.Failure.Kind != FailDeadlock {
				t.Fatalf("seed %d: failure %v, want deadlock", seed, out.Failure)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no random schedule exposed the AB/BA deadlock in 200 runs")
	}
}

func TestAssertFailureStopsExecution(t *testing.T) {
	reached := false
	out := runRR(t, func(t0 *Thread) {
		t0.Assert(false, "boom %d", 7)
		reached = true
	})
	if out.Failure == nil || out.Failure.Kind != FailAssert {
		t.Fatalf("Failure = %v, want assertion", out.Failure)
	}
	if out.Failure.Message != "boom 7" {
		t.Fatalf("Message = %q", out.Failure.Message)
	}
	if reached {
		t.Fatal("execution continued past a failed assertion")
	}
}

func TestDoubleUnlockIsCrash(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		m := t0.NewMutex("m")
		m.Lock(t0)
		m.Unlock(t0)
		m.Unlock(t0)
	})
	if out.Failure == nil || out.Failure.Kind != FailCrash {
		t.Fatalf("Failure = %v, want crash", out.Failure)
	}
}

func TestUseAfterDestroyIsCrash(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		m := t0.NewMutex("m")
		m.Destroy(t0)
		m.Lock(t0)
	})
	if out.Failure == nil || out.Failure.Kind != FailCrash {
		t.Fatalf("Failure = %v, want crash", out.Failure)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	var order []int
	out := runRR(t, func(t0 *Thread) {
		m := t0.NewMutex("m")
		c := t0.NewCond("c")
		ready := t0.NewVar("ready", 0)
		waiter := func(n int) Program {
			return func(tw *Thread) {
				m.Lock(tw)
				for ready.Load(tw) == 0 {
					c.Wait(tw, m)
				}
				order = append(order, n)
				m.Unlock(tw)
			}
		}
		w1 := t0.Spawn(waiter(1))
		w2 := t0.Spawn(waiter(2))
		// Let both waiters block: RR runs each to its Wait.
		t0.Yield()
		m.Lock(t0)
		ready.Store(t0, 1)
		c.Broadcast(t0)
		m.Unlock(t0)
		t0.Join(w1)
		t0.Join(w2)
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	if len(order) != 2 {
		t.Fatalf("order = %v, want both waiters to run", order)
	}
}

func TestLostSignalHasNoEffect(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		m := t0.NewMutex("m")
		c := t0.NewCond("c")
		c.Signal(t0) // no waiters: lost, per pthread semantics
		m.Lock(t0)
		m.Unlock(t0)
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
}

func TestSemaphoreBlocksAtZero(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		s := t0.NewSem("s", 0)
		producer := t0.Spawn(func(tp *Thread) { s.V(tp) })
		s.P(t0) // must block until the producer posts
		t0.Join(producer)
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
}

func TestSemaphoreDeadlockWhenNeverPosted(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		s := t0.NewSem("s", 0)
		s.P(t0)
	})
	if out.Failure == nil || out.Failure.Kind != FailDeadlock {
		t.Fatalf("Failure = %v, want deadlock", out.Failure)
	}
}

func TestBarrierReleasesAllParties(t *testing.T) {
	passed := 0
	out := runRR(t, func(t0 *Thread) {
		b := t0.NewBarrier("b", 3)
		worker := func(tw *Thread) {
			b.Arrive(tw)
			passed++
		}
		w1 := t0.Spawn(worker)
		w2 := t0.Spawn(worker)
		b.Arrive(t0)
		passed++
		t0.Join(w1)
		t0.Join(w2)
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	if passed != 3 {
		t.Fatalf("passed = %d, want 3", passed)
	}
}

func TestBarrierBlocksUntilFull(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		b := t0.NewBarrier("b", 2)
		b.Arrive(t0) // nobody else ever arrives
	})
	if out.Failure == nil || out.Failure.Kind != FailDeadlock {
		t.Fatalf("Failure = %v, want deadlock", out.Failure)
	}
}

func TestAtomicCAS(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		a := t0.NewAtomic("a", 5)
		t0.Assert(a.CAS(t0, 5, 7), "CAS(5,7) should succeed")
		t0.Assert(!a.CAS(t0, 5, 9), "CAS(5,9) should fail")
		t0.Assert(a.Load(t0) == 7, "value = %d, want 7", a.Load(t0))
		t0.Assert(a.Swap(t0, 1) == 7, "swap should return 7")
		t0.Assert(a.Add(t0, 2) == 3, "add should return 3")
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
}

func TestIntVarAddIsTwoAccesses(t *testing.T) {
	// With everything promoted, v.Add must be a load and a store: two
	// scheduling points. A second thread interleaving between them loses an
	// update — the canonical racy-counter bug shape.
	found := false
	for seed := uint64(0); seed < 100 && !found; seed++ {
		w := NewWorld(Options{Chooser: NewRandom(seed)})
		out := w.Run(Program(func(t0 *Thread) {
			v := t0.NewVar("v", 0)
			inc := func(tw *Thread) { v.Add(tw, 1) }
			a := t0.Spawn(inc)
			b := t0.Spawn(inc)
			t0.Join(a)
			t0.Join(b)
			t0.Assert(v.Load(t0) == 2, "lost update: v=%d", v.Load(t0))
		}))
		if out.Buggy() {
			found = true
		}
	}
	if !found {
		t.Fatal("lost update never exposed: IntVar.Add is not splittable")
	}
}

func TestInvisibleVarIsNoSchedulingPoint(t *testing.T) {
	vis := func(key string) bool { return false }
	w := NewWorld(Options{Chooser: RoundRobin(), Visible: vis})
	out := w.Run(Program(func(t0 *Thread) {
		v := t0.NewVar("v", 0)
		v.Store(t0, 1)
		v.Store(t0, 2)
		t0.Assert(v.Load(t0) == 2, "v=%d", v.Load(t0))
	}))
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	if len(out.Trace) != 0 {
		t.Fatalf("invisible accesses produced trace %v", out.Trace)
	}
}

func TestArrayBoundsCheckingModes(t *testing.T) {
	var oob Program = func(t0 *Thread) {
		a := t0.NewArray("a", 2)
		a.Set(t0, 5, 1)
		t0.Assert(a.Get(t0, 5) == 0, "unchecked OOB read must return 0")
	}
	// Without the detector the access is silently dropped (§4.2: such bugs
	// "do not always cause a crash").
	w := NewWorld(Options{Chooser: RoundRobin()})
	if out := w.Run(oob); out.Buggy() {
		t.Fatalf("unchecked OOB crashed: %v", out.Failure)
	}
	// With the detector it is a crash.
	w = NewWorld(Options{Chooser: RoundRobin(), BoundsCheck: true})
	if out := w.Run(oob); out.Failure == nil || out.Failure.Kind != FailCrash {
		t.Fatalf("checked OOB: Failure = %v, want crash", out.Failure)
	}
}

func TestDeterministicReplay(t *testing.T) {
	var program Program = func(t0 *Thread) {
		v := t0.NewVar("v", 0)
		m := t0.NewMutex("m")
		worker := func(tw *Thread) {
			m.Lock(tw)
			v.Add(tw, 1)
			m.Unlock(tw)
			v.Add(tw, 10)
		}
		a := t0.Spawn(worker)
		b := t0.Spawn(worker)
		t0.Join(a)
		t0.Join(b)
	}
	ref := NewWorld(Options{Chooser: NewRandom(42)}).Run(program)
	for i := 0; i < 5; i++ {
		rep := NewReplay(ref.Trace)
		out := NewWorld(Options{Chooser: rep}).Run(program)
		if rep.Failed() {
			t.Fatalf("replay diverged at step %d", rep.FailStep())
		}
		if !out.Trace.Equal(ref.Trace) {
			t.Fatalf("replayed trace differs:\n got %v\nwant %v", out.Trace, ref.Trace)
		}
		if out.PC != ref.PC || out.DC != ref.DC {
			t.Fatalf("replay costs (PC=%d,DC=%d) != reference (PC=%d,DC=%d)",
				out.PC, out.DC, ref.PC, ref.DC)
		}
	}
}

// TestReplayForcedDivergenceDetected pins Replay.Failed at a single-enabled
// point: a recording that names the wrong thread there is flagged as
// diverged even though only one thread could run.
func TestReplayForcedDivergenceDetected(t *testing.T) {
	var prog Program = func(t0 *Thread) {
		v := t0.NewVar("v", 0)
		v.Store(t0, 1)
		v.Store(t0, 2)
	}
	bogus := sched.Schedule{0, 99} // step 1 names a thread that cannot exist
	rep := NewReplay(bogus)
	NewWorld(Options{Chooser: rep}).Run(prog)
	if !rep.Failed() || rep.FailStep() != 1 {
		t.Errorf("divergence not detected (failed=%v step=%d)", rep.Failed(), rep.FailStep())
	}
}

func TestNoGoroutineLeakAcrossManyExecutions(t *testing.T) {
	before := runtime.NumGoroutine()
	var program Program = func(t0 *Thread) {
		m := t0.NewMutex("m")
		s := t0.NewSem("s", 0)
		// One child deadlocks on the semaphore, so every execution aborts
		// with threads still blocked — the hard teardown path.
		t0.Spawn(func(tw *Thread) { s.P(tw) })
		t0.Spawn(func(tw *Thread) { m.Lock(tw); m.Unlock(tw) })
		m.Lock(t0)
		m.Unlock(t0)
	}
	for seed := uint64(0); seed < 300; seed++ {
		NewWorld(Options{Chooser: NewRandom(seed)}).Run(program)
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestSpawnAllCreatesOneSchedulingStep(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		ts := t0.SpawnAll(
			func(*Thread) {},
			func(*Thread) {},
			func(*Thread) {},
		)
		for _, c := range ts {
			t0.Join(c)
		}
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	if out.Threads != 4 {
		t.Fatalf("Threads = %d, want 4", out.Threads)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	w := NewWorld(Options{Chooser: RoundRobin(), MaxSteps: 10})
	out := w.Run(Program(func(t0 *Thread) {
		for {
			t0.Yield()
		}
	}))
	if !out.StepLimitHit {
		t.Fatal("runaway program did not hit the step limit")
	}
	if out.Buggy() {
		t.Fatalf("step-limited run must not report a bug, got %v", out.Failure)
	}
}

// TestSchedPointsNotCountedAtStepLimit is the regression test for the
// scheduling-point off-by-one: SchedPoints and MaxEnabled used to be
// updated before the MaxSteps check, so a step-limited run counted a
// scheduling point — and could observe its enabled-thread high-water mark
// — at a point where no step ever executed.
func TestSchedPointsNotCountedAtStepLimit(t *testing.T) {
	// Thread 0's only step is the spawn (one enabled thread); the cut
	// happens at the next decision, where all three children are enabled.
	var prog Program = func(t0 *Thread) {
		t0.SpawnAll(
			func(tw *Thread) { tw.Yield() },
			func(tw *Thread) { tw.Yield() },
			func(tw *Thread) { tw.Yield() },
		)
	}
	out := NewWorld(Options{Chooser: RoundRobin(), MaxSteps: 1}).Run(prog)
	if !out.StepLimitHit {
		t.Fatal("step limit not hit")
	}
	if len(out.Trace) != 1 {
		t.Fatalf("trace %v, want exactly the spawn step", out.Trace)
	}
	if out.SchedPoints != 0 {
		t.Errorf("SchedPoints = %d at a 1-step limit, want 0: the cut-off point counted", out.SchedPoints)
	}
	if out.MaxEnabled != 1 {
		t.Errorf("MaxEnabled = %d, want 1: the never-executed point was observed", out.MaxEnabled)
	}

	// Sanity: one more step of budget executes one contested step, and
	// exactly one scheduling point is counted.
	out2 := NewWorld(Options{Chooser: RoundRobin(), MaxSteps: 2}).Run(prog)
	if !out2.StepLimitHit || len(out2.Trace) != 2 {
		t.Fatalf("MaxSteps=2: trace %v limit=%v", out2.Trace, out2.StepLimitHit)
	}
	if out2.SchedPoints != 1 || out2.MaxEnabled != 3 {
		t.Errorf("MaxSteps=2: SchedPoints=%d MaxEnabled=%d, want 1 and 3",
			out2.SchedPoints, out2.MaxEnabled)
	}
}

func TestOutcomeStatsTracked(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		a := t0.Spawn(func(tw *Thread) { tw.Yield(); tw.Yield() })
		b := t0.Spawn(func(tw *Thread) { tw.Yield() })
		t0.Join(a)
		t0.Join(b)
	})
	if out.MaxEnabled < 2 {
		t.Fatalf("MaxEnabled = %d, want >= 2", out.MaxEnabled)
	}
	if out.SchedPoints == 0 {
		t.Fatal("SchedPoints = 0, want > 0")
	}
	if out.Threads != 3 {
		t.Fatalf("Threads = %d, want 3", out.Threads)
	}
}
