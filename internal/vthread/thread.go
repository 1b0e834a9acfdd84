package vthread

import (
	"fmt"
	"sync"
)

type threadState int

const (
	// stateParked: the thread is stopped at a scheduling point with a
	// pending visible operation.
	stateParked threadState = iota
	// stateExited: the thread body returned, the thread failed, or the
	// thread was killed during execution teardown.
	stateExited
)

// killSignal is the panic value used to unwind a virtual thread's body when
// the execution is torn down. Pooled worker goroutines recover it and
// return to the pool; one-shot goroutines recover it and exit.
type killSignal struct{}

// misuseError is the panic payload of substrate misuse diagnostics (API
// contract violations in the harness, not scheduling bugs in the program).
// The panic-containment recovers rethrow it so misuse crashes loudly
// instead of masquerading as a found FailPanic bug.
type misuseError string

// Thread is a virtual thread. All operations on shared objects take the
// current thread as an argument, which is how the substrate serialises the
// program: each such operation is (or may be) a scheduling point.
//
// A Thread handle is only valid inside the execution that created it. The
// struct itself, its gate channel and its backing goroutine are recycled
// across executions when the World is owned by an Executor; newThread
// re-initialises every per-execution field before the body is handed over.
type Thread struct {
	w    *World
	id   ThreadID
	name string
	key  string // sync-object key for spawn/join happens-before edges

	gate chan struct{}
	// jobs delivers one Program per execution to this thread's pooled
	// worker goroutine. Nil for one-shot (plain World) threads, whose
	// goroutine runs a single body and exits.
	jobs chan Program
	// first receives this thread's park notifications during the eager
	// prefix run: a private channel consumed by the spawner (which owns
	// the baton for the duration of the spawn, so no other goroutine can
	// steal the message). Once the prefix has parked, the spawner clears
	// parkTo to nil — "baton mode" — and from then on the thread does not
	// notify anyone when it parks: it runs the scheduling decision itself
	// (World.continueFrom). The redirect is safe: the thread only reads
	// parkTo at its next park, which cannot happen before it is next
	// granted, which happens-after the spawner consumed the first park.
	// The channel is drained by every use, so it is recycled along with
	// the Thread.
	first   chan parkKind
	parkTo  chan parkKind
	pending pendingOp
	state   threadState
	killed  bool
	// isClock marks the virtual clock's pseudo-thread (see timer.go): a
	// Thread-shaped table entry with no goroutine, no gate and no pool
	// membership, whose steps the World executes inline.
	isClock bool
	// flat marks a goroutine-free thread of the flat engine (flat.go): no
	// gate, no jobs channel, no goroutine — its steps are function calls
	// into fi. Blocking through visible is impossible on such a thread and
	// panics (see the guard there).
	flat bool
	// fi is the thread's compiled-program interpreter, set when the thread
	// runs a CompiledProgram body (on either engine). Recycled with the
	// Thread struct.
	fi *interp

	// woken marks a condvar waiter that has been signalled and may now
	// re-contend for the mutex.
	woken bool

	// The World's enabled-set bookkeeping (World.syncEnabled): inEnabled
	// says the thread is listed in World.enabled; inCond that it is parked
	// at a conditional operation and linked, through condPrev and condNext,
	// into the list World.condHead starts; pos, meaningful only while
	// inEnabled, is the thread's index in World.enabled, written wherever
	// that slice is. Per-execution state: untrack clears the flags when the
	// struct is handed to a new execution.
	inEnabled, inCond  bool
	pos                int
	condPrev, condNext *Thread
}

// untrack clears the enabled-set bookkeeping a recycled Thread struct
// carries over from its previous execution.
func (t *Thread) untrack() {
	t.inEnabled, t.inCond = false, false
	t.condPrev, t.condNext = nil, nil
}

// threadKey is the sync-object key used for spawn/join happens-before
// edges of thread id.
func threadKey(id ThreadID) string { return fmt.Sprintf("thread/%d", id) }

// ensureNames extends the name/key caches to cover id.
func (w *World) ensureNames(id ThreadID) {
	for len(w.names) <= int(id) {
		n := ThreadID(len(w.names))
		w.names = append(w.names, fmt.Sprintf("T%d", n))
		w.keys = append(w.keys, threadKey(n))
	}
}

// newThread registers a thread, hands its goroutine the body, and runs the
// thread's invisible prefix up to its first visible operation (or exit)
// before returning. The caller — World.exec for thread 0, a spawning thread
// otherwise — owns the execution at that moment, so it consumes the child's
// first park itself. Running the prefix eagerly means a thread's first
// schedulable step is its first *real* visible operation, exactly the step
// model of §2; a thread with a fully invisible body never occupies a
// scheduling point at all.
//
// On a pooled World the Thread (goroutine, gate, channels) comes from the
// Executor's free list; otherwise a fresh struct and a one-shot goroutine
// are created.
func (w *World) newThread(body Program) *Thread {
	id := ThreadID(len(w.threads))
	w.ensureNames(id)
	var t *Thread
	if w.pool != nil {
		t = w.pool.acquire()
	} else {
		t = &Thread{
			gate:  make(chan struct{}),
			first: make(chan parkKind, 1),
		}
	}
	t.w = w
	t.id = id
	t.name = w.names[id]
	t.key = w.keys[id]
	t.pending = pendingOp{}
	t.state = stateParked
	t.killed = false
	t.woken = false
	t.isClock = false
	t.flat = false
	t.untrack()
	t.parkTo = t.first
	w.threads = append(w.threads, t)
	w.wg.Add(1)
	if t.jobs != nil {
		t.jobs <- body // wakes the pooled worker goroutine
	} else {
		go t.runOne(body)
	}
	t.gate <- struct{}{} // run the invisible prefix
	<-t.first            // …until the thread parks, exits or fails
	t.parkTo = nil       // baton mode: later parks schedule inline
	return t
}

// workerLoop is the goroutine body of a pooled thread: one runBody per
// assigned execution, parked on the jobs channel in between. exited is the
// Executor's shutdown WaitGroup.
func (t *Thread) workerLoop(exited *sync.WaitGroup) {
	defer exited.Done()
	for body := range t.jobs {
		t.runBody(body)
		t.w.wg.Done()
	}
}

// runOne is the goroutine body of a one-shot (plain World) thread.
func (t *Thread) runOne(body Program) {
	t.runBody(body)
	t.w.wg.Done()
}

// runBody executes one virtual-thread body to completion: clean exit,
// failure, or teardown unwind. It never lets killSignal escape, so pooled
// workers survive to serve the next execution; any other panic out of the
// body is a found bug (Failure{Kind: FailPanic}), contained exactly like a
// Fail call so the Executor stays reusable.
func (t *Thread) runBody(body Program) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); ok {
				return // execution teardown; state handled by the World
			}
			t.containPanic(r)
		}
	}()

	t.awaitGrant() // released by newThread to run the invisible prefix
	t.sinkAcquire(t.key)
	body(t)

	// Clean exit: publish exited state before passing the baton so the
	// scheduler never observes a stale parked state.
	t.sinkRelease(t.key)
	t.state = stateExited
	if t.parkTo != nil {
		// Exited during the eager spawn prefix: the spawner owns the baton
		// and consumes this park.
		t.parkTo <- parkExited
		return
	}
	t.w.exitFrom()
}

// containPanic converts a panic escaping a program body into the
// execution's failure and hands the baton on, following failNow's routing:
// the spawner consumes the park during the eager prefix, the exec
// goroutine otherwise. A body only runs while it holds the baton (chooser
// and substrate-protocol panics are captured elsewhere, see
// threadSideStep), so the send below always has a waiting receiver. The
// goroutine then returns to its pool normally — a crashing program is a
// found bug, not a dead process.
func (t *Thread) containPanic(r any) {
	if m, ok := r.(misuseError); ok {
		panic(m)
	}
	t.w.fail(&Failure{Kind: FailPanic, Thread: t.id,
		Message: fmt.Sprintf("panic: %v", r)})
	t.state = stateExited
	if t.parkTo != nil {
		t.parkTo <- parkFailed
		return
	}
	t.w.parked <- parkFailed
}

// grant wakes the thread to perform its pending operation (or, with
// killed set, to unwind). The sender must hold the baton; the send is the
// baton transfer.
func (t *Thread) grant() { t.gate <- struct{}{} }

// visible registers op as this thread's next visible operation and parks
// until the scheduler grants the thread. On return the thread owns the
// execution and must perform the operation it registered. Outside the
// eager spawn prefix the thread holds the baton, so instead of notifying
// anyone it runs the scheduling decision itself — and when the decision
// picks it again simply keeps going.
func (t *Thread) visible(op pendingOp) {
	if t.flat {
		// A flat-engine thread has no goroutine to park: blocking API calls
		// are only legal as compiled instructions, which register through
		// the interpreter's resume points instead of parking. Reaching this
		// guard means an operand or condition closure of a compiled program
		// called a blocking operation (Lock, Send, Load on a promoted
		// var, …) — suspension outside a resume point, a program bug.
		panic(misuseError("vthread: blocking operation on a flat-engine thread (suspension outside a compiled resume point; use instructions, not closure calls, for visible operations)"))
	}
	if t.killed {
		panic(killSignal{})
	}
	t.pending = op
	t.state = stateParked
	if t.parkTo != nil {
		// Eager spawn prefix: the spawner owns the baton and consumes this
		// park; the scheduler is not involved yet.
		t.parkTo <- parkPending
		t.awaitGrant()
		return
	}
	t.w.continueFrom(t)
}

// awaitGrant blocks until the world grants this thread (or kills it: a
// grant with killed set is the teardown signal).
func (t *Thread) awaitGrant() {
	<-t.gate
	if t.killed {
		panic(killSignal{})
	}
}

// failNow records f as the execution's failure and unwinds the thread.
// It never returns. During the eager spawn prefix the spawner consumes
// the park and the failure surfaces at the spawner's next scheduling
// decision; otherwise the failing thread holds the baton and returns it
// to the exec goroutine directly.
func (t *Thread) failNow(f *Failure) {
	t.w.fail(f)
	t.unwindFailed()
}

// unwindFailed is failNow once the failure is recorded.
func (t *Thread) unwindFailed() {
	t.state = stateExited
	if t.flat {
		// No goroutine, no baton: unwind the interpreter call stack; the
		// flat step loop's one recover catches the signal and the recorded
		// failure ends the run at its next scheduling decision. (Only
		// crashes in the commit helpers come this way: a failed compiled
		// assertion returns instead, see interp.failMsg.)
		panic(killSignal{})
	}
	if t.parkTo != nil {
		t.parkTo <- parkFailed
	} else {
		t.w.parked <- parkFailed
	}
	panic(killSignal{})
}

// ID returns the thread's identifier (creation order, 0 = initial thread).
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread's display name ("T0", "T1", …) unless renamed
// with SetName.
func (t *Thread) Name() string { return t.name }

// SetName assigns a display name used in failure messages.
func (t *Thread) SetName(name string) { t.name = name }

// World returns the execution this thread belongs to.
func (t *Thread) World() *World { return t.w }

// Spawn creates a new virtual thread running body and returns its handle.
// Spawning is a visible operation. The child's invisible prefix (everything
// before its first visible operation) runs during the spawn step; its first
// schedulable step is its first visible operation.
func (t *Thread) Spawn(body Program) *Thread {
	t.visible(pendingOp{kind: opSpawn})
	childID := ThreadID(len(t.w.threads))
	t.w.ensureNames(childID)
	t.sink().spawned(t.id, childID)
	t.sinkRelease(t.w.keys[childID])
	return t.w.newThread(body)
}

// SpawnAll creates several threads in one visible operation, modelling the
// single create(T1,…,Tn) step of the paper's Figure 1 example. The children
// are numbered in argument order.
func (t *Thread) SpawnAll(bodies ...Program) []*Thread {
	t.visible(pendingOp{kind: opSpawn})
	out := make([]*Thread, len(bodies))
	for i, body := range bodies {
		childID := ThreadID(len(t.w.threads))
		t.w.ensureNames(childID)
		t.sink().spawned(t.id, childID)
		t.sinkRelease(t.w.keys[childID])
		out[i] = t.w.newThread(body)
	}
	return out
}

// Join blocks until other has exited. Joining is a visible operation; the
// joining thread is disabled until the target's body returns.
func (t *Thread) Join(other *Thread) {
	t.visible(pendingOp{kind: opJoin, target: other})
	t.sinkAcquire(other.key)
}

// Yield is a visible no-op: a pure scheduling point. It models a compute
// step that the tester wants schedulable (for example a statement the race
// detector flagged).
func (t *Thread) Yield() {
	t.visible(pendingOp{kind: opYield})
}

// Assert checks a safety property of the program under test. A false
// condition is an assertion-failure bug and terminates the execution.
// Assert itself is invisible: the reads feeding cond are the visible
// operations.
func (t *Thread) Assert(cond bool, format string, args ...any) {
	if cond {
		return
	}
	if t.killed {
		panic(killSignal{})
	}
	t.failNow(&Failure{
		Kind:    FailAssert,
		Thread:  t.id,
		Message: fmt.Sprintf(format, args...),
	})
}

// Fail unconditionally reports a bug found by the program's own checking
// code (for example an output checker, §4.2 of the paper).
func (t *Thread) Fail(format string, args ...any) {
	if t.killed {
		panic(killSignal{})
	}
	t.failNow(&Failure{
		Kind:    FailAssert,
		Thread:  t.id,
		Message: fmt.Sprintf(format, args...),
	})
}

// crash reports a modelled memory-safety failure (use of a destroyed
// object, double unlock, out-of-bounds access with checking enabled, …).
func (t *Thread) crash(format string, args ...any) {
	if t.killed {
		panic(killSignal{})
	}
	t.failNow(&Failure{
		Kind:    FailCrash,
		Thread:  t.id,
		Message: fmt.Sprintf(format, args...),
	})
}

// sink helpers: no-ops when no EventSink is configured or during teardown.

type sinkProxy struct{ t *Thread }

func (t *Thread) sink() sinkProxy { return sinkProxy{t} }

func (p sinkProxy) spawned(parent, child ThreadID) {
	if s := p.t.w.opts.Sink; s != nil && !p.t.killed {
		s.Spawned(parent, child)
	}
}

func (t *Thread) sinkAccess(key string, write bool) {
	if s := t.w.opts.Sink; s != nil && !t.killed {
		s.Access(t.id, key, write)
	}
}

func (t *Thread) sinkAcquire(key string) {
	if s := t.w.opts.Sink; s != nil && !t.killed {
		s.Acquire(t.id, key)
	}
}

func (t *Thread) sinkRelease(key string) {
	if s := t.w.opts.Sink; s != nil && !t.killed {
		s.Release(t.id, key)
	}
}
