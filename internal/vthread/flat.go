package vthread

import "fmt"

// The flat engine: an entire multi-threaded execution stepped by ONE
// goroutine — the Run caller's. Where the reference engine parks each
// virtual thread's goroutine on a gate channel and transfers a baton
// per step (thread.go, world.go), the flat engine keeps every thread as an
// interp value and dispatches each granted step as a plain function call:
// a context switch is a switch statement, not a channel rendezvous.
//
// The scheduling brain is untouched: execFlat drives the very same
// World.nextStep loop — enabledness, the chooser, select case resolution,
// clock firing, accounting, abort and deadlock detection — so a flat run
// produces the bit-identical trace, Outcome, Failure and event stream as a
// reference run of the same program under the same Chooser, which is what
// the equivalence tests check by running a program and its AsProgram bridge.
//
// Threads register operations by having interp.advance fill req, published
// as Thread.pending; a grant is one turn of stepFlat's loop, which performs
// the pending op's effect (interp.perform, through the same commit helpers)
// and then advances to the next registration. Thread bodies therefore never
// block — which is why only CompiledPrograms run here, and why Thread.visible
// panics on a flat thread: a closure operation inside an operand callback
// has no goroutine to park (see the misuse guard in thread.go).

// execFlat is exec for compiled programs: same seeding, same decision loop,
// no goroutines, no baton. A chooser panic propagates directly to the Run
// caller (the decision runs on its goroutine), matching the reference
// engine's rethrow contract. With from set (Executor.RunFrom) the seeding is
// replaced by restoring that prefix state; the loop is the same.
func (w *World) execFlat(cp *CompiledProgram, from *snapshot) {
	if from != nil {
		w.cache.resume(w, from)
	} else {
		env := cp.newEnv(w)
		if w.cache != nil {
			w.cache.begin(env)
		}
		w.newFlatThread(cp, env, 0, nil, nil)
	}
	for !w.stepFlat() {
	}
	w.abortRemainingFlat()
}

// stepFlat is the flat engine's step loop: it grants the thread each decision
// picks — perform the pending operation's effect, then either publish the
// op's follow-up phase (condvar re-acquire, barrier wait, Once completion) or
// advance to the next registration — until nextStep ends the execution, and
// then reports over.
//
// Its one deferred recover is the engine's containment, paid once per run
// rather than once per step. A step that panics — a crash raised through
// failNow's killSignal, or an instruction operand or condition closure
// crashing, recorded as a FailPanic failure — ends the loop with over false,
// for execFlat to re-enter: the recorded failure then ends the run at the
// first nextStep, with the trace intact, and the World resets cleanly for the
// executor's next run. A panic out of nextStep itself (a chooser, the
// chooser-misuse check) is no step's: t is nil then, nothing is recovered,
// and it propagates to the Run caller. A failed assertion does not panic at
// all: failMsg retires the thread and advance returns (see flatAdvance).
func (w *World) stepFlat() (over bool) {
	var t *Thread
	defer func() {
		if t == nil {
			return
		}
		if r := recover(); r != nil {
			w.containFlatPanic(t, r)
		}
	}()
	for {
		t = nil // while nextStep decides, no step is running
		if t = w.nextStep(); t == nil {
			return true
		}
		w.stats.FlatSteps++
		if !t.fi.perform(t) {
			w.flatAdvance(t)
		}
	}
}

// newFlatThread registers a goroutine-free thread running the given body
// and runs its invisible prefix (everything before its first visible
// operation), exactly like newThread's eager prefix run. Called by execFlat
// for thread 0 and by a spawn's perform for children.
func (w *World) newFlatThread(cp *CompiledProgram, env *progEnv, body int, args []int, oargs []any) *Thread {
	id := ThreadID(len(w.threads))
	w.ensureNames(id)
	t := w.pool.acquireFlat() // execFlat only runs under an Executor
	t.w = w
	t.id = id
	t.name = w.names[id]
	t.key = w.keys[id]
	t.pending = pendingOp{}
	t.state = stateParked
	t.killed = false
	t.woken = false
	t.isClock = false
	t.parkTo = nil
	t.flat = true
	t.untrack()
	if t.fi == nil {
		t.fi = &interp{}
	}
	t.fi.init(cp, env, body, args, oargs)
	t.fi.req = &t.pending // registrations land in the published slot directly
	w.threads = append(w.threads, t)
	t.runFlatPrefix()
	return t
}

// runFlatPrefix mirrors runBody's opening: the spawn/exec acquire edge,
// then the invisible prefix up to the first registration (or exit). A
// failed assertion in the prefix (fully invisible code) retires the thread
// and returns, and a crash unwinds via killSignal, caught here — either way
// the spawner continues and the failure surfaces at the next scheduling
// decision, as on the reference engine. Any other panic out of the prefix
// (an operand closure crashing) is contained as a FailPanic failure,
// matching runBody's containment on the reference engine.
func (t *Thread) runFlatPrefix() {
	defer func() {
		if r := recover(); r != nil {
			t.w.containFlatPanic(t, r)
		}
	}()
	t.sinkAcquire(t.key)
	t.w.flatAdvance(t)
}

// flatAdvance runs t's interpreter to its next registration, publishing it
// as the thread's pending op, or retires the thread at body end (the
// release edge and exited state of runBody's clean-exit path). A thread that
// failed an assertion on the way (failMsg) is already retired and gets no
// release edge: a failing thread's end is not an exit, and on the reference
// engine failNow emits none either.
func (w *World) flatAdvance(t *Thread) {
	if t.fi.advance(t) {
		t.state = stateParked
		return
	}
	if t.state == stateExited {
		return
	}
	t.sinkRelease(t.key)
	t.state = stateExited
}

// containFlatPanic is the flat engine's containment of a panic r recovered
// out of t's code: killSignal unwinds of a failing thread (failNow) are
// swallowed; misuse diagnostics are rethrown; any other panic is recorded as
// the execution's FailPanic failure and the thread retired.
func (w *World) containFlatPanic(t *Thread, r any) {
	if _, ok := r.(killSignal); ok {
		return
	}
	if m, ok := r.(misuseError); ok {
		panic(m)
	}
	w.fail(&Failure{Kind: FailPanic, Thread: t.id,
		Message: fmt.Sprintf("panic: %v", r)})
	t.state = stateExited
}

// abortRemainingFlat is abortRemaining for a flat run: no goroutines to
// unwind, so retiring a thread is just marking it.
func (w *World) abortRemainingFlat() {
	for _, t := range w.threads {
		if t.state != stateExited {
			t.killed = true
			t.state = stateExited
		}
	}
}
