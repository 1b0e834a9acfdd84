package vthread

import (
	"runtime"
	"testing"
	"time"
)

// abortAfter aborts at step n (round-robin before that). The returned id
// after an abort is deliberately garbage: the contract says it is ignored.
func abortAfter(n int) Chooser {
	return ChooserFunc(func(ctx Context) ThreadID {
		if ctx.Step >= n {
			ctx.Abort()
			return ThreadID(9999) // ignored by contract, even though not enabled
		}
		return RoundRobin().Choose(ctx)
	})
}

// TestAbortAtStepZero pins the edge case the Context.Abort doc promises:
// aborting before any step runs yields an empty trace, no failure, and a
// substrate that remains fully usable.
func TestAbortAtStepZero(t *testing.T) {
	out := NewWorld(Options{Chooser: abortAfter(0)}).Run(executorTestProgram)
	if !out.Aborted {
		t.Fatal("outcome not marked Aborted")
	}
	if len(out.Trace) != 0 {
		t.Fatalf("aborted at step 0 but trace has %d steps: %v", len(out.Trace), out.Trace)
	}
	if out.Failure != nil {
		t.Fatalf("aborted run reports a failure: %v", out.Failure)
	}
	if out.StepLimitHit {
		t.Fatal("abort misreported as step-limit hit")
	}
}

// TestAbortTwiceIsIdempotent: calling Abort twice within one Choose (and
// again at a later Choose, defensively) must behave exactly like one call.
func TestAbortTwiceIsIdempotent(t *testing.T) {
	calls := 0
	doubleAbort := ChooserFunc(func(ctx Context) ThreadID {
		calls++
		if ctx.Step >= 2 {
			ctx.Abort()
			ctx.Abort()
			return ThreadID(-7)
		}
		return ctx.Enabled[0]
	})
	out := NewWorld(Options{Chooser: doubleAbort}).Run(executorTestProgram)
	if !out.Aborted || len(out.Trace) != 2 || out.Failure != nil {
		t.Fatalf("double abort at step 2: aborted=%v trace=%v failure=%v",
			out.Aborted, out.Trace, out.Failure)
	}
	// The world must stop consulting the chooser after the aborting call.
	if calls != 3 {
		t.Fatalf("chooser consulted %d times, want 3 (two steps + the aborting call)", calls)
	}
}

// TestAbortPrefixMatchesUnaborted: an execution aborted at step n must have
// executed exactly the first n steps of the equivalent full run.
func TestAbortPrefixMatchesUnaborted(t *testing.T) {
	full := NewWorld(Options{Chooser: RoundRobin()}).Run(executorTestProgram)
	if full.Aborted {
		t.Fatal("premise: full run aborted")
	}
	// n stays below the full length: at n == len(full.Trace) the run ends
	// before the chooser is consulted again, so nothing aborts.
	for n := 0; n < len(full.Trace); n += 3 {
		out := NewWorld(Options{Chooser: abortAfter(n)}).Run(executorTestProgram)
		if !out.Aborted {
			t.Fatalf("n=%d: not aborted", n)
		}
		if len(out.Trace) != n || !out.Trace.Equal(full.Trace[:n]) {
			t.Fatalf("n=%d: aborted trace %v, want prefix %v", n, out.Trace, full.Trace[:n])
		}
	}
}

// TestAbortAtSingleEnabledPoint: Choose is consulted at scheduling points
// with exactly one enabled thread too, and may abort there under the usual
// contract — the run stops with the executed prefix (the sleep-set and DPOR
// engines rely on this when the single enabled thread is asleep).
func TestAbortAtSingleEnabledPoint(t *testing.T) {
	// Single-threaded program: every scheduling point has one enabled thread.
	var prog Program = func(t0 *Thread) {
		v := t0.NewVar("v", 0)
		for i := 0; i < 8; i++ {
			v.Store(t0, i)
		}
	}
	consulted := 0
	inner := abortAfter(3)
	ch := ChooserFunc(func(ctx Context) ThreadID {
		if len(ctx.Enabled) != 1 {
			t.Errorf("step %d: %d threads enabled, want 1", ctx.Step, len(ctx.Enabled))
		}
		consulted++
		return inner.Choose(ctx)
	})
	out := NewWorld(Options{Chooser: ch}).Run(prog)
	if !out.Aborted {
		t.Fatal("run not aborted")
	}
	if len(out.Trace) != 3 {
		t.Fatalf("trace %v, want the 3-step prefix", out.Trace)
	}
	if out.Failure != nil {
		t.Fatalf("aborted run has failure %v", out.Failure)
	}
	if consulted != 4 {
		t.Fatalf("chooser consulted %d times, want 4 (three steps + the aborting call)", consulted)
	}
}

// TestAbortExecutorStaysReusable pins the tentpole substrate contract: an
// Executor whose runs are chooser-aborted (at every depth, including 0)
// keeps its worker pool, leaks no goroutines, and still produces
// World-identical outcomes afterwards.
func TestAbortExecutorStaysReusable(t *testing.T) {
	start := runtime.NumGoroutine()
	ex := NewExecutor(Options{})

	// Warm the pool with one full run, then hammer aborts at varying depths.
	ex.RunWith(RoundRobin(), nil, executorTestProgram)
	base := runtime.NumGoroutine()
	for i := 0; i < 5000; i++ {
		out := ex.RunWith(abortAfter(i%7), nil, executorTestProgram)
		if !out.Aborted || out.Failure != nil {
			t.Fatalf("run %d: aborted=%v failure=%v", i, out.Aborted, out.Failure)
		}
		if len(out.Trace) != i%7 {
			t.Fatalf("run %d: trace length %d, want %d", i, len(out.Trace), i%7)
		}
	}
	if now := runtime.NumGoroutine(); now > base+2 {
		t.Fatalf("goroutines grew across 5k aborted executions: %d -> %d", base, now)
	}

	// Interleave aborted and clean runs: outcomes must match a fresh World.
	for seed := uint64(0); seed < 20; seed++ {
		ex.RunWith(abortAfter(int(seed)%5), nil, executorTestProgram)
		want := NewWorld(Options{Chooser: NewRandom(seed)}).Run(executorTestProgram)
		got := ex.RunWith(NewRandom(seed), nil, executorTestProgram)
		if !outcomesEqual(want, got) {
			t.Fatalf("seed %d after aborts: executor outcome differs\n got %+v\nwant %+v",
				seed, got, want)
		}
	}

	ex.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start+1 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > start+1 {
		t.Fatalf("pool not drained by Close after aborts: %d goroutines, started with %d", now, start)
	}
}

// TestAbortWithDeadlockProgram: aborting a run whose threads would deadlock
// must not classify the blocked threads as a deadlock — the outcome is
// decided by the abort, not by finishIdle.
func TestAbortWithDeadlockProgram(t *testing.T) {
	ex := NewExecutor(Options{})
	defer ex.Close()
	out := ex.RunWith(abortAfter(1), nil, deadlockProgram)
	if !out.Aborted || out.Failure != nil {
		t.Fatalf("aborted=%v failure=%v, want aborted with nil failure", out.Aborted, out.Failure)
	}
	// And the very next run still detects the deadlock normally.
	out = ex.RunWith(RoundRobin(), nil, deadlockProgram)
	if out.Failure == nil || out.Failure.Kind != FailDeadlock {
		t.Fatalf("post-abort run missed the deadlock: %v", out.Failure)
	}
}
