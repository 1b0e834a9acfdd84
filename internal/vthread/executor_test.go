package vthread

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// executorTestProgram exercises spawn/join, mutexes and shared variables —
// enough surface that World-vs-Executor divergence in any handoff path
// would change the trace.
var executorTestProgram Program = func(t0 *Thread) {
	m := t0.NewMutex("m")
	v := t0.NewVar("v", 0)
	worker := func(tw *Thread) {
		m.Lock(tw)
		v.Add(tw, 1)
		m.Unlock(tw)
		v.Store(tw, v.Load(tw)+1)
	}
	a := t0.Spawn(worker)
	b := t0.Spawn(worker)
	t0.Join(a)
	t0.Join(b)
	t0.Assert(v.Load(t0) >= 2, "lost updates: %d", v.Load(t0))
}

// deadlockProgram leaves three children blocked on a mutex the exiting
// root still holds, so every run ends in teardown kills.
var deadlockProgram Program = func(t0 *Thread) {
	m := t0.NewMutex("m")
	m.Lock(t0)
	for i := 0; i < 3; i++ {
		t0.Spawn(func(tc *Thread) {
			m.Lock(tc)
			m.Unlock(tc)
		})
	}
}

func outcomesEqual(a, b *Outcome) bool {
	if !a.Trace.Equal(b.Trace) || a.PC != b.PC || a.DC != b.DC ||
		a.SchedPoints != b.SchedPoints || a.SelectPoints != b.SelectPoints ||
		a.TimerPoints != b.TimerPoints || a.MaxEnabled != b.MaxEnabled ||
		a.Threads != b.Threads || a.StepLimitHit != b.StepLimitHit ||
		a.Aborted != b.Aborted {
		return false
	}
	if (a.Failure == nil) != (b.Failure == nil) {
		return false
	}
	if a.Failure != nil && a.Failure.Kind != b.Failure.Kind {
		return false
	}
	return true
}

// failuresEqual compares failures including the message, which
// outcomesEqual (kind-only) does not, formatted as a keeper sees them
// (Clone): an Executor's raw record has an empty Message.
func failuresEqual(a, b *Failure) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a.Clone() == *b.Clone()
}

// TestExecutorMatchesWorldAcrossReuse pins the core Executor contract: a
// reused Executor produces outcomes bit-identical to a fresh World per
// run, for clean, buggy and deadlocking executions alike.
func TestExecutorMatchesWorldAcrossReuse(t *testing.T) {
	programs := []Program{executorTestProgram, deadlockProgram}
	for pi, prog := range programs {
		ex := NewExecutor(Options{})
		for seed := uint64(0); seed < 50; seed++ {
			want := NewWorld(Options{Chooser: NewRandom(seed)}).Run(prog)
			got := ex.RunWith(NewRandom(seed), nil, prog)
			if !outcomesEqual(want, got) {
				t.Fatalf("program %d seed %d: executor outcome differs\n got %+v\nwant %+v",
					pi, seed, got, want)
			}
		}
		ex.Close()
	}
}

// TestExecutorTraceAliasingRegression pins the documented aliasing
// contract: the Outcome (and its Trace) returned by a run is overwritten
// by the next run, so retaining callers must clone. This is the regression
// test for the reuse hazard that buffer recycling introduced.
func TestExecutorTraceAliasingRegression(t *testing.T) {
	// lastEnabled picks the highest-id enabled thread: maximally different
	// from round-robin from the first contested point on.
	lastEnabled := ChooserFunc(func(ctx Context) ThreadID {
		return ctx.Enabled[len(ctx.Enabled)-1]
	})

	wantRR := NewWorld(Options{Chooser: RoundRobin()}).Run(executorTestProgram)
	wantLE := NewWorld(Options{Chooser: lastEnabled}).Run(executorTestProgram)
	if wantRR.Trace.Equal(wantLE.Trace) {
		t.Fatal("test premise broken: the two choosers produced the same trace")
	}

	ex := NewExecutor(Options{})
	defer ex.Close()

	out1 := ex.RunWith(RoundRobin(), nil, executorTestProgram)
	retained := out1.Trace // aliasing misuse: kept across the next run
	cloned := out1.Trace.Clone()

	out2 := ex.RunWith(lastEnabled, nil, executorTestProgram)
	if out1 != out2 {
		t.Error("Executor is documented to reuse its Outcome; pointers differ")
	}
	if !cloned.Equal(wantRR.Trace) {
		t.Errorf("cloned trace corrupted by reuse: %v, want %v", cloned, wantRR.Trace)
	}
	if !out2.Trace.Equal(wantLE.Trace) {
		t.Errorf("second run trace %v, want %v", out2.Trace, wantLE.Trace)
	}
	// The hazard is real: the retained alias was rewritten in place.
	if retained.Equal(wantRR.Trace) {
		t.Error("retained (un-cloned) trace still matches run 1: buffer was not recycled, aliasing contract is stale")
	}
}

// TestExecutorFailureAliasingRegression extends the aliasing contract to
// Outcome.Failure: a failed compiled assertion and a deadlock are recorded,
// unformatted, in the World's own failure record, which the next failing run
// rewrites, so a caller that keeps the failure must Clone it — and the clone
// is exactly the failure a fresh World reports for the same schedule.
func TestExecutorFailureAliasingRegression(t *testing.T) {
	// Two workers add 300 and 700 to v by a separate load and store; main
	// asserts v == 0, printing v, which depends on the updates lost.
	p := NewBuilder()
	v := p.Var("v", 0)
	wk := p.Body(1, 0)
	x, d := wk.Load(v), wk.Arg(0)
	wk.Store(v, func(t *Thread) int { return t.Reg(x) + t.Reg(d) })
	mn := p.Main()
	a, b := mn.Spawn(wk, 300), mn.Spawn(wk, 700)
	mn.Join(a)
	mn.Join(b)
	got := mn.Load(v)
	mn.Assert(func(t *Thread) bool { return t.Reg(got) == 0 }, "v=%d, want 0", got)
	prog := p.Build()

	// Two seeds whose runs fail differently, and a deadlock.
	want := func(seed uint64) *Failure { return NewWorld(Options{Chooser: NewRandom(seed)}).Run(prog).Failure }
	first, second := uint64(0), uint64(1)
	for ; second < 100 && *want(second) == *want(first); second++ {
	}
	wantA, wantB := want(first), want(second)
	wantDL := NewWorld(Options{Chooser: RoundRobin()}).Run(deadlockProgram).Failure
	if *wantA == *wantB || wantDL == nil {
		t.Fatalf("test premise broken: failures %v, %v and %v", wantA, wantB, wantDL)
	}

	ex := NewExecutor(Options{})
	defer ex.Close()
	raw := ex.RunWith(NewRandom(first), nil, prog).Failure
	if raw.Message != "" {
		t.Errorf("a failed compiled assertion was formatted during the run: %q", raw.Message)
	}
	if raw.Error() != wantA.Error() {
		t.Errorf("raw record reads %q, want %q", raw.Error(), wantA.Error())
	}
	kept := raw.Clone()
	if *kept != *wantA {
		t.Errorf("clone %+v, want %+v", kept, wantA)
	}

	out := ex.RunWith(NewRandom(second), nil, prog)
	if out.Failure != raw {
		t.Error("Executor is documented to reuse its failure record; pointers differ")
	}
	if *out.Failure.Clone() != *wantB {
		t.Errorf("second run's failure %v, want %v", out.Failure, wantB)
	}
	if *kept != *wantA {
		t.Errorf("kept clone corrupted by reuse: %v, want %v", kept, wantA)
	}
	// The hazard is real: the retained record now says the second run's.
	if raw.Error() == wantA.Error() {
		t.Error("retained (un-cloned) failure still reads run 1: the record was not reused, the aliasing contract is stale")
	}

	// A deadlock, on the reference engine, goes into the same record.
	if f := ex.RunWith(RoundRobin(), nil, deadlockProgram).Failure; *f.Clone() != *wantDL || *kept != *wantA {
		t.Errorf("deadlock run: failure %v (want %v), kept clone %v", f, wantDL, kept)
	}
}

// TestExecutorReuseWhileRunningPanics pins the in-flight guard: calling
// back into the Executor from inside one of its own runs must panic, not
// corrupt state.
func TestExecutorReuseWhileRunningPanics(t *testing.T) {
	// No Close: a panic mid-run leaves the Executor (deliberately)
	// unusable — its in-flight workers never finish, so Close would block.
	// The few leaked goroutines are confined to this test process.
	ex := NewExecutor(Options{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("reentrant Executor run did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "in flight") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	reenter := ChooserFunc(func(ctx Context) ThreadID {
		ex.RunWith(RoundRobin(), nil, executorTestProgram)
		return ctx.Enabled[0]
	})
	ex.RunWith(reenter, nil, executorTestProgram)
}

// TestExecutorKilledPoolDrainsNoGoroutineLeak pins the pool's teardown
// path: 10k executions that all end in killed (deadlocked) threads must
// not grow the goroutine count — the killed workers return to the pool —
// and Close must release the pool entirely.
func TestExecutorKilledPoolDrainsNoGoroutineLeak(t *testing.T) {
	start := runtime.NumGoroutine()
	ex := NewExecutor(Options{Chooser: RoundRobin()})

	out := ex.Run(deadlockProgram)
	if out.Failure == nil || out.Failure.Kind != FailDeadlock {
		t.Fatalf("expected deadlock, got %v", out.Failure)
	}
	base := runtime.NumGoroutine()

	for i := 0; i < 10000; i++ {
		out := ex.Run(deadlockProgram)
		if out.Failure == nil || out.Failure.Kind != FailDeadlock {
			t.Fatalf("run %d: expected deadlock, got %v", i, out.Failure)
		}
		if out.Threads != 4 {
			t.Fatalf("run %d: %d threads, want 4", i, out.Threads)
		}
	}
	if now := runtime.NumGoroutine(); now > base+2 {
		t.Fatalf("goroutines grew across 10k pooled executions: %d -> %d", base, now)
	}

	ex.Close()
	// Close waits for the workers' final Done, but the goroutines may need
	// a beat to fully unwind before NumGoroutine reflects it.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start+1 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > start+1 {
		t.Fatalf("pool not drained by Close: %d goroutines, started with %d", now, start)
	}
}

// TestExecutorCloseSemantics: Close is idempotent and running after Close
// panics.
func TestExecutorCloseSemantics(t *testing.T) {
	ex := NewExecutor(Options{Chooser: RoundRobin()})
	ex.Run(executorTestProgram)
	ex.Close()
	ex.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("run after Close did not panic")
		}
	}()
	ex.Run(executorTestProgram)
}

// TestExecutorRunWithoutChooserPanics: an Executor built without a default
// chooser must reject Run (but accept RunWith).
func TestExecutorRunWithoutChooserPanics(t *testing.T) {
	ex := NewExecutor(Options{})
	defer ex.Close()
	out := ex.RunWith(RoundRobin(), nil, executorTestProgram)
	if out.Failure != nil {
		t.Fatalf("round-robin run failed: %v", out.Failure)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run without a chooser did not panic")
		}
	}()
	ex.Run(executorTestProgram)
}

// TestExecutorSinkAndVisibleHonoured: per-run sinks observe exactly their
// own run, and the configured Visible predicate applies across reuse.
func TestExecutorSinkAndVisibleHonoured(t *testing.T) {
	prog := Program(func(t0 *Thread) {
		v := t0.NewVar("v", 0)
		h := t0.NewVar("hidden", 0)
		v.Store(t0, 1)
		h.Store(t0, 1)
	})
	ex := NewExecutor(Options{Visible: func(key string) bool { return key == "var/v" }})
	defer ex.Close()
	for i := 0; i < 3; i++ {
		log := NewTraceLogger()
		out := ex.RunWith(RoundRobin(), log, prog)
		if len(out.Trace) != 1 {
			t.Fatalf("run %d: trace %v, want exactly the one visible store", i, out.Trace)
		}
		if !strings.Contains(log.String(), "var/v") {
			t.Fatalf("run %d: sink missed the visible access:\n%s", i, log.String())
		}
	}
}
