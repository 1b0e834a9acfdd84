// Package vthread implements the cooperative virtual-threading substrate on
// which all systematic concurrency testing (SCT) in this repository runs.
//
// Programs are written against an explicit API: virtual threads are spawned
// with Spawn, synchronise through Mutex/Cond/Sem/Barrier, and share state
// through IntVar/Atomic/Array objects. A World executes a program with
// concurrency fully serialised: exactly one virtual thread runs at a time,
// and at every visible operation (§2 of Thomson et al., PPoPP'14) a pluggable
// Chooser decides which enabled thread performs the next step. Executions are
// deterministic given the sequence of choices, which is what makes stateless
// model checking — repeated execution under different schedules — possible.
//
// The substrate corresponds to the modified Maple tool of the paper: Maple
// serialises pthread programs via PIN instrumentation; we serialise virtual
// threads via channel-gated goroutines, because the Go runtime scheduler
// cannot be hooked. The visible-operation model, enabledness semantics,
// deadlock detection and schedule accounting follow the paper's §2 directly.
package vthread

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"sctbench/internal/sched"
)

// ThreadID identifies a virtual thread within one execution. Threads are
// numbered in creation order starting from 0 (the initial thread), exactly
// as the delay-bounding definition in the paper requires.
type ThreadID = sched.ThreadID

// NoThread is the sentinel used before any thread has run.
const NoThread = sched.NoThread

// Program is the body of the initial thread (thread 0) of an execution.
type Program func(t *Thread)

// Context describes one scheduling point: the state a Chooser sees when it
// must pick the next thread to run.
type Context struct {
	// Step is the index of this scheduling point in the execution (0-based).
	Step int
	// Enabled lists the enabled threads in strictly ascending ThreadID order
	// (the precondition of the sched.Canonical* functions). It is never empty
	// and must not be mutated. It is valid only during the Choose call: it
	// aliases the World's own enabled set, which is kept across scheduling
	// points and updated in place between Choose calls, so a chooser that
	// wants it later must copy it.
	Enabled []ThreadID
	// Last is the thread that executed the previous step, or NoThread at the
	// first step.
	Last ThreadID
	// LastEnabled reports whether Last is currently enabled (i.e. whether
	// switching away from it would be a preemptive context switch).
	LastEnabled bool
	// NumThreads is the number of threads created so far (ids 0..NumThreads-1).
	// At a case-decision point (SelectOf != NoThread) it is instead the
	// select's total case count, so sched.CanonicalOrder arithmetic over
	// Enabled works unchanged.
	NumThreads int
	// PendingOf reports what operation a thread is about to perform —
	// enough for idiom-driven active scheduling (the Maple algorithm) to
	// steer particular accesses. Valid for any non-exited thread. At a
	// case-decision point it maps a *case index* to that case's footprint
	// (the one channel the case touches) instead.
	PendingOf func(ThreadID) PendingInfo

	// SelectOf distinguishes the two kinds of scheduling point. NoThread
	// (the overwhelmingly common value) marks an ordinary thread choice.
	// Otherwise this is a case-decision point: the thread SelectOf has been
	// granted a multi-way Select with several ready cases, Enabled lists
	// the ready *case indices* (ascending) rather than thread ids, and the
	// Chooser's pick selects which case commits. Case-decision Contexts
	// carry Last = NoThread and NumThreads = the select's case count, so
	// canonical-order and cost arithmetic stay valid (every case pick has
	// preemption and delay cost zero). Choosers that interpret Enabled as
	// thread ids (priority or pending-op driven ones) must branch on this
	// field.
	SelectOf ThreadID

	// world backs Abort and NoResume. A Context is only valid during the
	// Choose call it was built for, which is what makes the pointer safe to
	// embed.
	world *World
}

// Abort requests that the execution stop at this scheduling point instead
// of performing another step. The World kills every remaining thread
// through the ordinary teardown path (kill-by-grant, so pooled Executor
// workers survive and the Executor stays reusable) and returns an Outcome
// with Aborted set: no further step is executed, the Trace holds exactly
// the prefix executed so far, and Failure is nil. The thread id the
// Chooser returns from the same Choose call is ignored (it may be any
// value, enabled or not).
//
// Abort is the pruning hook of the exploration engines: a chooser that can
// prove the remainder of the execution redundant (for example because
// every enabled thread is in a sleep set) cuts the run short rather than
// paying for the schedule's tail. Calling Abort more than once within a
// Choose call is idempotent; calling it at step 0 aborts before any step
// runs (empty trace). A Context must not be retained: Abort outside the
// Choose invocation the Context was passed to is unsupported.
func (c Context) Abort() {
	c.world.aborted = true
}

// NoResume marks this scheduling point as one no later execution resumes
// from: every run that repeats the steps before it will make the same choice
// here (a bounded search whose untried alternatives are all over the bound),
// so the prefix-state cache of Executor.RunFrom saves no state here. A
// chooser that never calls it gets a state saved wherever the spacing rule
// puts one. Like Abort, it holds only for the Choose call it is made in.
func (c Context) NoResume() {
	c.world.noResume = true
}

// PendingInfo describes a parked thread's next visible operation: enough
// for idiom-driven active scheduling (the Maple algorithm) to steer
// particular accesses, and for partial-order reduction to judge
// independence of pending operations.
type PendingInfo struct {
	// IsAccess reports a promoted shared-memory access.
	IsAccess bool
	// Key is the accessed variable's key (empty unless IsAccess).
	Key string
	// IsWrite distinguishes stores from loads (meaningful only when
	// IsAccess).
	IsWrite bool
	// Objects lists the shared objects the operation touches: none for
	// spawn, one for most synchronisation ops, two for a condvar wait
	// (the condvar and the mutex), N for a multi-way Select (every member
	// channel — readiness depends on all of them, so a select commutes
	// with nothing touching any of its channels).
	Objects Footprint
	// ReadOnly reports that the operation does not modify its objects
	// (a load, a read-lock). Two read-only operations on the same object
	// commute.
	ReadOnly bool
	// Opaque reports that the operation's footprint is unknown: a Yield
	// gates arbitrary invisible statements (the figure-1 idiom models
	// plain-variable accesses exactly this way), so nothing can be proven
	// about what commutes with it. An opaque operation is never
	// independent of anything, other opaque operations and footprint-free
	// operations included.
	Opaque bool
	// IsJoin marks a thread join, and JoinOf is then the joined thread's
	// id (undefined otherwise). Exits are not scheduling points, so a
	// joined thread's steps never touch the join's thread-key object;
	// partial-order reduction needs this field to recover the
	// target-exits-before-join ordering edge.
	IsJoin bool
	JoinOf ThreadID
}

// Independent reports whether two pending operations commute: they touch
// disjoint objects, or share objects only read-only, and neither has an
// unknown (Opaque) footprint. Conservative in the partial-order-reduction
// sense: "false" is always safe. Both sides are taken by reference: a
// PendingInfo is over a hundred bytes, and the partial-order-reduction
// engines ask this at every fresh node.
func (a *PendingInfo) Independent(b *PendingInfo) bool {
	if a.Opaque || b.Opaque {
		return false
	}
	if a.ReadOnly && b.ReadOnly {
		return true
	}
	return !a.Objects.Overlaps(&b.Objects)
}

// Chooser selects the next thread to execute at a scheduling point. Choose
// is called at every scheduling point, single-enabled ones included — one
// decision per visible operation, the §2 step model — so per-step
// bookkeeping (replay cursors, search-tree nodes, random draws) lives in
// Choose alone. The returned id must be an element of ctx.Enabled; the
// World panics otherwise, since a chooser violating this invariant is an
// implementation bug, not a property of the program under test. The one
// exception: a Choose call that invoked ctx.Abort may return anything —
// the execution stops at this point and the value is ignored (see
// Context.Abort). A chooser that knows no later run chooses differently at
// a point says so with ctx.NoResume, and no prefix state is saved there.
//
// Goroutine migration: Choose may be called from different goroutines,
// never concurrently. It always runs with the baton held, but on the
// reference engine that is the goroutine of the virtual thread that just
// finished a step (see doc.go, "Step handoff protocol"). The channel
// operations that pass the baton provide the happens-before edges, so a
// chooser needs no locking; it only must not assume goroutine identity.
type Chooser interface {
	Choose(ctx Context) ThreadID
}

// ChooserFunc adapts a function to the Chooser interface.
type ChooserFunc func(ctx Context) ThreadID

// Choose calls f(ctx).
func (f ChooserFunc) Choose(ctx Context) ThreadID { return f(ctx) }

// EventSink observes the synchronisation and memory-access events of an
// execution. It is how the dynamic race detector (internal/race) watches a
// run. All callbacks happen on the single executing thread; implementations
// need no locking.
type EventSink interface {
	// Access reports a shared-memory access to the variable identified by
	// key. write distinguishes stores from loads.
	Access(t ThreadID, key string, write bool)
	// Acquire reports an acquire-side synchronisation on the object key
	// (mutex lock, semaphore P, condvar wakeup, barrier exit, join).
	Acquire(t ThreadID, key string)
	// Release reports a release-side synchronisation on the object key
	// (mutex unlock, semaphore V, condvar signal, barrier entry, exit).
	Release(t ThreadID, key string)
	// Spawned reports creation of a child thread by parent.
	Spawned(parent, child ThreadID)
}

// Options configures a World.
//
// Concurrency contract: a World and everything wired into it (the Chooser,
// the Sink) are confined to one execution at a time — none of them is
// ever called from two goroutines at once, so implementations need no
// locking. They are not confined to one *goroutine*: the reference engine
// runs the Chooser on the deciding virtual thread's goroutine, and the Sink
// has always been called from thread goroutines; the baton-passing channel
// operations provide the happens-before edges (see doc.go, "Step handoff
// protocol"). Distinct Worlds share no state (the package has no mutable
// globals), so running one World per driver goroutine is safe; that is
// exactly how the parallel exploration driver uses this package. The one
// shared input is the Program value itself: with concurrent Worlds it is
// invoked concurrently and must confine all state to the invocation.
type Options struct {
	// Chooser picks the next thread at every scheduling point. Required.
	Chooser Chooser
	// Visible, when non-nil, restricts which shared variables yield
	// scheduling points: an IntVar/Array access is a visible operation only
	// if Visible(key) is true. Synchronisation operations and Atomics are
	// always visible. A nil Visible treats every shared access as visible
	// (used by the race-detection phase).
	Visible func(key string) bool
	// Sink, when non-nil, observes synchronisation and access events.
	Sink EventSink
	// MaxSteps bounds the number of visible operations in one execution as a
	// livelock guard. Zero means DefaultMaxSteps.
	MaxSteps int
	// BoundsCheck enables the out-of-bounds access detector on Array objects
	// (§4.2 of the paper). When false, out-of-bounds accesses are silently
	// dropped, modelling the paper's observation that such bugs "do not
	// always cause a crash" and are missed without additional checking.
	BoundsCheck bool
}

// StepStats counts which engine ran, cumulative over the life of a World
// or Executor.
type StepStats struct {
	// FlatSteps counts steps dispatched by the flat engine: a granted
	// operation performed as a direct function call into the thread's
	// interpreter.
	FlatSteps int64
	// RunsResumed counts Executor.RunFrom runs that continued from a saved
	// prefix state instead of the initial state, and StepsSkipped the trace
	// entries those runs did not execute. The thread steps among those are
	// still counted in FlatSteps (the execution is the same, only the work is
	// not); clock fires and case decisions never are. Snapshots counts the
	// prefix states saved.
	RunsResumed  int64
	StepsSkipped int64
	Snapshots    int64
}

// DefaultMaxSteps is the per-execution visible-operation budget used when
// Options.MaxSteps is zero.
const DefaultMaxSteps = 200000

// Outcome summarises one terminated execution.
type Outcome struct {
	// Failure is nil for a clean terminal execution and non-nil when the
	// execution exposed a bug (deadlock, assertion failure, crash, …).
	Failure *Failure
	// Trace is the executed schedule: the thread chosen at each scheduling
	// point, in order. A World-produced Outcome owns its trace; an
	// Executor-produced Outcome's trace aliases a buffer the next run
	// rewrites, so retaining callers must Clone it (see Executor).
	Trace sched.Schedule
	// PC and DC are the preemption count and delay count of Trace, computed
	// online with the paper's §2 definitions.
	PC, DC int
	// SchedPoints is the number of scheduling points at which more than one
	// choice existed: thread points with more than one enabled thread (the
	// paper's "# max scheduling points" is the max of this over all
	// executions of a benchmark) plus case-decision points (which always
	// have at least two ready cases by construction).
	SchedPoints int
	// SelectPoints is the number of case-decision scheduling points: a
	// Select granted with two or more ready cases contributes one (and one
	// extra trace entry recording the committed case index). Selects that
	// had nothing to decide — zero or one ready case — contribute none.
	SelectPoints int
	// TimerPoints is the number of timer-firing steps executed: trace
	// entries naming the clock pseudo-thread. Like SelectPoints and
	// SchedPoints it is recomputed from zero every run, so an Executor
	// never carries a previous run's counters (tested).
	TimerPoints int
	// MaxEnabled is the largest number of simultaneously enabled threads
	// observed at any scheduling point.
	MaxEnabled int
	// Threads is the total number of threads created, the clock
	// pseudo-thread included when the program armed any timer.
	Threads int
	// StepLimitHit reports that the execution was cut off by MaxSteps; such
	// executions are not terminal schedules and their Failure is nil.
	StepLimitHit bool
	// Aborted reports that the Chooser cut the execution short with
	// Context.Abort. Like step-limited runs, aborted runs are not terminal
	// schedules and their Failure is nil; Trace holds the executed prefix.
	Aborted bool
}

// Buggy reports whether the execution exposed a bug.
func (o *Outcome) Buggy() bool { return o.Failure != nil }

type parkKind int

const (
	parkPending parkKind = iota // parked at the next visible operation
	parkExited                  // thread body returned
	parkFailed                  // thread reported a failure; execution aborts
	// parkDone reports the execution over (terminal, deadlock, failure,
	// step limit, abort, or a captured scheduling panic): the baton
	// returns to the exec goroutine for teardown.
	parkDone
)

// World is a single execution of a Program. A World must not be reused:
// create a fresh World for every execution, or use an Executor, which is a
// resettable World that recycles its thread goroutines and buffers across
// executions.
type World struct {
	opts Options
	pool *Executor // non-nil when owned by an Executor: threads are pooled

	threads []*Thread
	last    ThreadID
	trace   sched.Schedule
	pc, dc  int

	schedPoints int
	maxEnabled  int
	selPoints   int
	timerPoints int

	// clk is the virtual-time state: the timer table, the virtual now and
	// the clock pseudo-thread (see timer.go).
	clk clock

	// failure is the execution's first failure: nil, &own for the World's
	// own record (a failed compiled assertion, a deadlock; see failRecord),
	// or a failure some other path allocated.
	failure      *Failure
	stepLimitHit bool
	aborted      bool

	parked chan parkKind
	wg     sync.WaitGroup

	// schedPanic is a panic captured from a scheduling decision that ran
	// on a virtual thread's goroutine, rethrown by exec on the Run caller's
	// goroutine. Baton-protected.
	schedPanic any

	stats StepStats

	// enabled is the enabled set, ascending, kept across scheduling points:
	// syncEnabled brings it up to date by re-evaluating only the threads
	// that can have changed since the previous point (see there). seen is
	// the number of threads it has taken in, condHead the list of threads
	// parked at an operation whose enabledness depends on object state, and
	// live the number of program threads that have not exited (what the
	// clock pseudo-thread's enabledness asks). All four are per-execution
	// state. The list is threaded through the Thread structs so that the
	// bookkeeping allocates nothing.
	enabled  []ThreadID
	seen     int
	condHead *Thread
	live     int
	// enabledCheck, nil outside tests, is called with the World at every
	// scheduling point once the enabled set is up to date: the hook the
	// whole-scan oracle of enabled_oracle_test.go hangs on. positionCheck,
	// likewise, is called at every thread-choice point with what choose read
	// off the members' positions (position_oracle_test.go).
	enabledCheck  func(*World)
	positionCheck func(w *World, start int, lastEnabled bool, choice ThreadID, pos int)
	// cache, non-nil only during an Executor.RunFrom run of a compiled
	// program, is where nextStep saves prefix states (snapshot.go).
	// restoreCheck, nil outside tests, is called right after such a run has
	// restored one, before its first step. resumed says the World stands at
	// a restored decision, its enabled set already synced; noResume that the
	// chooser marked the decision being made (Context.NoResume).
	cache             *prefixCache
	restoreCheck      func(*World)
	resumed, noResume bool
	// pendingFn is w.pendingOf bound once; building the method value at
	// every scheduling point would allocate a closure per step. casePendFn
	// is the case-decision counterpart (w.casePendingOf), reading the
	// select being resolved from caseSel.
	pendingFn  func(ThreadID) PendingInfo
	casePendFn func(ThreadID) PendingInfo

	// readyBuf is the reused ready-case buffer of resolveSelect; caseSel is
	// the select op being resolved, set only for the duration of its
	// case-decision Choose call (baton-protected, like every World field).
	readyBuf []ThreadID
	caseSel  *selectOp

	// names and keys cache the per-id display names ("T0", …) and
	// sync-object keys ("thread/0", …). Ids repeat across the executions of
	// an Executor, so the formatting cost is paid once per id, not per run.
	names []string
	keys  []string

	running bool

	// own and rec are the World's failure record (failure.go), kept off the
	// fields a step touches.
	own Failure
	rec failRecord
}

// NewWorld creates a single-use execution context with the given options.
func NewWorld(opts Options) *World {
	if opts.Chooser == nil {
		panic("vthread: Options.Chooser is required")
	}
	w := &World{}
	w.init(opts)
	return w
}

// init sets up the invariant parts of a World; shared by NewWorld and
// NewExecutor (which validates the Chooser per run instead).
func (w *World) init(opts Options) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	w.opts = opts
	w.last = NoThread
	w.parked = make(chan parkKind, 1)
	w.pendingFn = w.pendingOf
	w.casePendFn = w.casePendingOf
}

// reset prepares the World for another execution. Only an Executor resets a
// World; the thread pool, trace capacity, enabled buffer and name caches
// survive the reset.
func (w *World) reset() {
	w.threads = w.threads[:0]
	w.last = NoThread
	w.trace = w.trace[:0]
	w.pc, w.dc = 0, 0
	w.enabled = w.enabled[:0]
	w.seen, w.condHead, w.live = 0, nil, 0
	w.schedPoints, w.maxEnabled = 0, 0
	w.selPoints = 0
	w.timerPoints = 0
	w.clk.reset()
	w.caseSel = nil
	w.failure = nil
	w.stepLimitHit, w.resumed = false, false
	w.aborted = false
	w.schedPanic = nil
}

// Run executes program to a terminal state (all threads exited), a failure,
// or the step limit, and returns the outcome. Run must be called exactly once
// per World. It returns only after every virtual thread's body has finished
// (exited or unwound), so nothing touches the program's state afterwards.
// The returned Outcome, its Trace and its Failure (formatted here) are owned
// by the caller: a single-use World never writes to them again. A single-use
// World always runs the
// blocking reference engine: a *CompiledProgram is bridged via AsProgram
// (trace-identical to its flat execution under an Executor).
func (w *World) Run(program Runnable) *Outcome {
	if w.running {
		panic("vthread: World.Run called twice")
	}
	w.running = true

	w.exec(AsProgram(program))

	out := &Outcome{}
	w.fillOutcome(out)
	out.Failure = out.Failure.Clone()
	return out
}

// exec is the execution driver shared by World.Run and Executor runs. It
// seeds thread 0, makes the first scheduling decision on the calling
// goroutine, grants once, and waits once for the baton to come back:
// every later decision runs inline on the goroutine of the virtual thread
// that just finished a step (see doc.go, "Step handoff protocol"), so a
// step costs zero goroutine switches (same-thread continuation) or one
// (direct thread-to-thread handoff).
func (w *World) exec(program Program) {
	w.newThread(program)

	// First decision: a chooser panic propagates directly.
	if next := w.nextStep(); next != nil {
		next.grant()
		<-w.parked // parkDone or parkFailed: the execution is over
	}
	if p := w.schedPanic; p != nil {
		// A scheduling decision running on a virtual thread's goroutine
		// panicked (chooser bug, invalid choice, reentrant run). Rethrow on
		// the Run caller's goroutine. No teardown: the execution is
		// abandoned mid-flight (the Executor is then unusable by the
		// documented panic contract).
		w.schedPanic = nil
		panic(p)
	}
	w.abortRemaining()
	w.wg.Wait()
}

// nextStep runs scheduling decisions until one grants a program thread:
// termination checks, accounting, the chooser — and, when the decision
// picks the clock pseudo-thread, the timer fire itself, performed inline
// before looping to the next decision (the clock has no goroutine to
// grant; see timer.go). It returns the thread to grant, or nil when the
// execution is over (terminal, deadlock, failure, step limit, or chooser
// abort). Runs on whichever goroutine holds the baton.
func (w *World) nextStep() *Thread {
	for {
		// A failure may have been reported by the previous step's thread or,
		// via Spawn's eager prefix execution, by a child it created.
		if w.failure != nil {
			return nil
		}
		enabled := w.enabled
		if w.resumed {
			// A restored decision: its enabled set and counters are this point's.
			w.resumed = false
		} else {
			enabled = w.syncEnabled()
			if len(enabled) == 0 {
				w.finishIdle()
				return nil
			}
			if len(w.trace) >= w.opts.MaxSteps {
				w.stepLimitHit = true
				return nil
			}
			// Scheduling-point statistics strictly after the step-limit check: a
			// step-limited run must not count a scheduling point at which no step
			// executed.
			if len(enabled) > 1 {
				w.schedPoints++
			}
			if len(enabled) > w.maxEnabled {
				w.maxEnabled = len(enabled)
			}
		}

		// Every member of the set knows its index in it, so last's flag and
		// index answer LastEnabled and where the canonical order starts (at
		// last itself, the non-preemptive continuation). Only a last that has
		// left the set needs the search for the first id after it.
		start, lastEnabled := 0, false
		if w.last != NoThread {
			if lt := w.threads[w.last]; lt.inEnabled {
				start, lastEnabled = lt.pos, true
			} else {
				start, _ = sched.CanonicalStart(enabled, w.last)
			}
		}
		w.noResume = false
		choice, pos := w.choose(enabled, start, lastEnabled)
		// The snapshot point: the decision, whose state the chooser leaves as
		// it found it, so a later run re-enters here and chooses afresh.
		if c := w.cache; c != nil && !w.noResume && len(w.trace) >= c.next {
			c.take(w)
		}
		if w.aborted {
			return nil
		}
		t := w.threads[choice]
		if t.isClock {
			// A clock step: account it like any thread step (it occupies a
			// trace entry and costs preemptions/delays by the ordinary
			// arithmetic), fire the due timer inline on this goroutine, and
			// continue to the next decision — no baton transfer, because
			// the clock has no goroutine.
			w.accountStep(choice, pos, lastEnabled)
			w.last = choice
			w.fireTimer()
			continue
		}
		casePick := NoThread
		if t.pending.kind == opSelect {
			var ok bool
			if casePick, ok = w.resolveSelect(t); !ok {
				// Aborted at the case-decision point: nothing was accounted, so
				// the trace holds exactly the executed prefix.
				return nil
			}
		}
		w.accountStep(choice, pos, lastEnabled)
		if casePick != NoThread {
			// The case-decision entry: trace position step+1, cost zero under
			// both schedule-cost models (no thread switched).
			w.trace = append(w.trace, casePick)
		}
		w.last = choice
		return t
	}
}

// resolveSelect decides which case of t's granted Select commits, writing
// the pick into the select op for t to act on. With two or more ready
// cases this is a case-decision scheduling point: the Chooser picks among
// the ready case indices and the pick is returned for the trace (it
// occupies the position right after t's own entry). With zero (default
// fires) or one ready case there is nothing to decide and NoThread is
// returned. ok is false when the Chooser aborted at the decision point.
func (w *World) resolveSelect(t *Thread) (pick ThreadID, ok bool) {
	sel := t.pending.sel
	ready := w.readyBuf[:0]
	for i := range sel.cases {
		if sel.cases[i].ready() {
			ready = append(ready, ThreadID(i))
		}
	}
	w.readyBuf = ready
	switch len(ready) {
	case 0:
		// Only reachable with a default (the op is disabled otherwise).
		sel.pick = DefaultCase
		return NoThread, true
	case 1:
		sel.pick = int(ready[0])
		return NoThread, true
	}
	w.schedPoints++
	w.selPoints++
	w.caseSel = sel
	choice := w.opts.Chooser.Choose(w.makeCaseContext(t, ready))
	w.caseSel = nil
	if w.aborted {
		return NoThread, false
	}
	if !slices.Contains(ready, choice) {
		panic(fmt.Sprintf("vthread: chooser picked select case %d which is not ready %v", choice, ready))
	}
	sel.pick = int(choice)
	return choice, true
}

// makeCaseContext builds the Context of a case-decision point: Enabled
// holds the ready case indices, Last is NoThread and NumThreads the
// select's case count so canonical-order and cost arithmetic hold (every
// pick costs zero), and PendingOf maps case indices to per-case
// footprints.
func (w *World) makeCaseContext(t *Thread, ready []ThreadID) Context {
	return Context{
		Step:       len(w.trace) + 1, // right after the granted thread's entry
		Enabled:    ready,
		Last:       NoThread,
		NumThreads: len(t.pending.sel.cases),
		PendingOf:  w.casePendFn,
		SelectOf:   t.id,
		world:      w,
	}
}

// continueFrom runs the scheduler on t's goroutine after t parked at its
// next visible operation. It returns when t is granted again — immediately
// when the decision picks t itself — and unwinds via killSignal when the
// execution is torn down before that.
func (w *World) continueFrom(t *Thread) {
	next := w.threadSideStep()
	if next == t {
		// Same-thread continuation: the running thread keeps the baton and
		// proceeds straight into its granted operation. Zero switches.
		return
	}
	w.dispatch(next)
	t.awaitGrant()
}

// exitFrom runs the scheduler on the goroutine of a thread whose body just
// returned; the exiting thread passes the baton on and its goroutine goes
// back to the pool (or exits, for a one-shot World).
func (w *World) exitFrom() {
	w.dispatch(w.threadSideStep())
}

// dispatch hands the baton onward from a goroutine that is giving it up:
// gate-to-gate to next (one switch), or back to exec when the execution is
// over (next is nil).
func (w *World) dispatch(next *Thread) {
	if next == nil {
		w.parked <- parkDone
		return
	}
	next.grant()
}

// threadSideStep is nextStep for decisions running on a virtual thread's
// goroutine: panics out of the chooser (or the enabledness validation) are
// captured into w.schedPanic so exec can rethrow them on the Run caller's
// goroutine.
func (w *World) threadSideStep() (next *Thread) {
	defer func() {
		if r := recover(); r != nil {
			w.schedPanic = r // next stays nil: the execution is over
		}
	}()
	return w.nextStep()
}

// StepStats reports which engine ran this World's steps, cumulative across
// the executions it has run (one for a plain World, many under an
// Executor). Purely diagnostic: benchmarks and engine-selection tests read
// it; nothing in the substrate does.
func (w *World) StepStats() StepStats { return w.stats }

// fillOutcome writes the execution's summary into out. The Trace field
// aliases w.trace; the caller decides whether that buffer is single-use
// (World) or recycled (Executor).
func (w *World) fillOutcome(out *Outcome) {
	*out = Outcome{
		Failure:      w.failure,
		Trace:        w.trace,
		PC:           w.pc,
		DC:           w.dc,
		SchedPoints:  w.schedPoints,
		SelectPoints: w.selPoints,
		TimerPoints:  w.timerPoints,
		MaxEnabled:   w.maxEnabled,
		Threads:      len(w.threads),
		StepLimitHit: w.stepLimitHit,
		Aborted:      w.aborted,
	}
}

// choose consults the chooser and validates its decision. start and
// lastEnabled are sched.CanonicalStart of the enabled set; pos is the
// choice's position in the canonical order, which is what it costs in delays:
// its index in the set, rotated to start there.
func (w *World) choose(enabled []ThreadID, start int, lastEnabled bool) (choice ThreadID, pos int) {
	choice = w.opts.Chooser.Choose(Context{
		Step:        len(w.trace),
		Enabled:     enabled,
		Last:        w.last,
		LastEnabled: lastEnabled,
		NumThreads:  len(w.threads),
		PendingOf:   w.pendingFn,
		SelectOf:    NoThread,
		world:       w,
	})
	if w.aborted {
		// The return value of an aborting Choose is ignored by contract;
		// skip the enabledness validation.
		return NoThread, 0
	}
	if uint(choice) >= uint(len(w.threads)) || !w.threads[choice].inEnabled {
		panic(fmt.Sprintf(chooserMisuse+" %d which is not enabled %v", choice, enabled))
	}
	if pos = w.threads[choice].pos - start; pos < 0 {
		pos += len(enabled)
	}
	if w.positionCheck != nil {
		w.positionCheck(w, start, lastEnabled, choice, pos)
	}
	return choice, pos
}

// chooserMisuse opens the panic message of a Chooser that returned a thread
// that is not enabled.
const chooserMisuse = "vthread: chooser picked thread"

// IsChooserMisuse reports whether msg — a recovered panic value, printed — is
// that diagnostic. A search engine replaying a stored frontier against a
// program it was not recorded on fails this way, and a caller that restored
// the frontier from a file wants to say so (explore.Resume).
func IsChooserMisuse(msg string) bool { return strings.HasPrefix(msg, chooserMisuse) }

// accountStep appends the choice to the trace and updates the online
// preemption and delay counts with the §2 definitions, the delay cost read
// off the choice's position in the canonical order (sched.DelayCost).
func (w *World) accountStep(choice ThreadID, pos int, lastEnabled bool) {
	w.pc += sched.PCStep(w.last, lastEnabled, choice)
	w.dc += sched.DelayCost(w.last, pos)
	w.trace = append(w.trace, choice)
}

// syncEnabled brings the enabled set up to date for the scheduling point
// being entered and returns it, ascending; the slice is updated in place at
// the next point. It rests on one invariant, which both engines keep:
// between two scheduling points only the thread that stepped and the
// threads created during that step change state or pending operation. Every
// other thread's enabledness can therefore move only if its pending
// operation is one whose enabledness reads object state (see
// pendingOp.enabled), so those threads — and no others — are re-evaluated at
// every point.
func (w *World) syncEnabled() []ThreadID {
	stale := false
	if w.last != NoThread {
		t := w.threads[w.last]
		if t.state == stateExited {
			w.live--
		}
		stale = w.track(t)
	}
	for ; w.seen < len(w.threads); w.seen++ {
		t := w.threads[w.seen]
		if !t.isClock && t.state != stateExited {
			w.live++
		}
		stale = w.track(t) || stale
	}
	for t := w.condHead; t != nil; t = t.condNext {
		on, _ := t.pending.enabled(w)
		stale = w.setEnabled(t, on) || stale
	}
	if stale {
		// Some thread joined or left the set elsewhere than at its end: list
		// the members again, in id order, each told its new index. This reads
		// one flag a thread and evaluates nothing.
		w.enabled = w.enabled[:0]
		for _, t := range w.threads {
			if t.inEnabled {
				t.pos = len(w.enabled)
				w.enabled = append(w.enabled, t.id)
			}
		}
	}
	if w.enabledCheck != nil {
		w.enabledCheck(w)
	}
	return w.enabled
}

// track takes in t, whose state or pending operation may have changed: it
// files t under the conditional threads, or else settles its membership of
// the enabled set for as long as it stays where it is — a thread parked at
// an unconditional operation is enabled, an exited one is not. It reports
// whether the enabled slice went stale (see setEnabled).
func (w *World) track(t *Thread) (stale bool) {
	on, cond := false, false
	if t.state == stateParked {
		on, cond = t.pending.enabled(w)
	}
	if cond != t.inCond {
		t.inCond = cond
		if cond {
			w.condLink(t)
		} else {
			w.condUnlink(t)
		}
	}
	if cond {
		return false // syncEnabled evaluates it with the other conditional threads
	}
	return w.setEnabled(t, on)
}

// condLink puts t at the head of the conditional threads.
func (w *World) condLink(t *Thread) {
	t.condPrev, t.condNext = nil, w.condHead
	if w.condHead != nil {
		w.condHead.condPrev = t
	}
	w.condHead = t
}

// condUnlink takes t out of the conditional threads.
func (w *World) condUnlink(t *Thread) {
	if t.condPrev != nil {
		t.condPrev.condNext = t.condNext
	} else {
		w.condHead = t.condNext
	}
	if t.condNext != nil {
		t.condNext.condPrev = t.condPrev
	}
	t.condPrev, t.condNext = nil, nil
}

// setEnabled records whether t is enabled. A thread that joins with the
// largest id of the set — every freshly spawned one — is appended; any other
// change leaves the slice stale, for syncEnabled to list again.
func (w *World) setEnabled(t *Thread, on bool) (stale bool) {
	if on == t.inEnabled {
		return false
	}
	t.inEnabled = on
	if n := len(w.enabled); on && (n == 0 || w.enabled[n-1] < t.id) {
		t.pos = n
		w.enabled = append(w.enabled, t.id)
		return false
	}
	return true
}

// finishIdle classifies the no-enabled-thread state: clean termination if
// every program thread exited, deadlock otherwise. The clock pseudo-thread
// never counts as blocked — a program that exits with timers still armed
// has leaked them, not deadlocked — but armed-yet-unfireable timers are
// named in the deadlock message, because "blocked on a stopped ticker" and
// "blocked forever" deserve different diagnoses even though both are
// deadlocks (a *fireable* timer would have kept the clock enabled and the
// execution running). Both go into the World's failure record, formatted
// only when someone asks (Failure.Clone, Error).
func (w *World) finishIdle() {
	if w.failure != nil {
		return
	}
	r := &w.rec
	r.blocked = r.blocked[:0]
	for _, t := range w.threads {
		if !t.isClock && t.state != stateExited {
			r.blocked = append(r.blocked, t.id)
		}
	}
	if len(r.blocked) > 0 {
		r.armed = w.clk.armedCount()
		w.record(FailDeadlock, r.blocked[0])
	}
}

// abortRemaining kills every thread that has not exited so its body
// unwinds. Called once the execution outcome is decided. Every non-exited
// thread is blocked in (or about to enter) awaitGrant, so the kill is a
// grant with killed set: the thread panics with killSignal out of the
// receive and unwinds without touching shared state or parking again.
// The gate is never closed — it is recycled by the Executor pool — and
// exec's wg.Wait observes the unwinding complete.
func (w *World) abortRemaining() {
	for _, t := range w.threads {
		if t.state == stateExited {
			continue
		}
		if t.isClock {
			// The clock pseudo-thread has no goroutine and no gate; there
			// is nothing to unwind.
			t.state = stateExited
			continue
		}
		t.killed = true
		t.state = stateExited
		t.gate <- struct{}{}
	}
}

// fail records the first failure of the execution.
func (w *World) fail(f *Failure) {
	if w.failure == nil {
		w.failure = f
	}
}

// pendingOf exposes pending-operation metadata to choosers. It fills its
// named result in place and reads the operation through a pointer: both
// structs are over a hundred bytes, and the partial-order-reduction engines
// query a footprint at every fresh node.
func (w *World) pendingOf(t ThreadID) (info PendingInfo) {
	if int(t) < 0 || int(t) >= len(w.threads) {
		return
	}
	op := &w.threads[t].pending
	switch op.kind {
	case opAccess:
		info.IsAccess = true
		info.Key = op.key
		info.IsWrite = op.write
		info.Objects.add(op.key)
		info.ReadOnly = !op.write
	case opLock, opUnlock, opDestroy:
		info.Objects.add(op.mutex.key)
	case opCondWait, opCondResume:
		info.Objects.add(op.cond.key)
		info.Objects.add(op.mutex.key)
	case opSignal, opBroadcast:
		info.Objects.add(op.cond.key)
	case opSemP, opSemV:
		info.Objects.add(op.sem.key)
	case opBarrierArrive, opBarrierWait:
		info.Objects.add(op.barrier.key)
	case opJoin:
		info.Objects.add(op.target.key)
		info.ReadOnly = true
		info.IsJoin = true
		info.JoinOf = op.target.id
	case opAtomic:
		info.Objects.add(op.key)
	case opRLock, opRUnlock:
		info.Objects.add(op.rw.key)
		info.ReadOnly = true
	case opWLock, opWUnlock:
		info.Objects.add(op.rw.key)
	case opChanSend, opChanRecv, opChanTry, opChanClose:
		info.Objects.add(op.ch.key)
	case opSelect:
		// Readiness depends on every member channel and the commit mutates
		// one of them, so the footprint is the full member set — a select
		// commutes with nothing touching any of its channels. The key slice
		// was built once when the op was registered; the footprint aliases
		// it without copying.
		info.Objects = footprintOverKeys(op.sel.objs)
	case opWGAdd, opWGWait:
		info.Objects.add(op.wg.key)
	case opOnceDo, opOnceDone:
		info.Objects.add(op.once.key)
	case opTimerArm:
		// Arming reads the virtual now (deadline = now + d), so arms never
		// commute with fires — the shared clock key carries that edge.
		info.Objects.add(clockKey)
		info.Objects.add(op.timer.ch.key)
	case opTimerStop:
		// Stop only disarms: it does not read the now, so it commutes with
		// a fire unless that fire targets this very timer (whose channel
		// key the fire's footprint then carries).
		info.Objects.add(op.timer.ch.key)
	case opTimerFire:
		// The clock pseudo-thread's step: advances the virtual now, plus
		// the effect footprint of the specific timer due at this decision
		// point — its delivery channel, or the done keys of the context
		// subtree a deadline would cancel.
		info.Objects.add(clockKey)
		if v := w.clk.nextFireable(); v != nil {
			if v.kind == timerDeadline {
				ctxFootprint(v.ctx, &info)
			} else {
				info.Objects.add(v.ch.key)
			}
		}
	case opCtxNew:
		// Creation observes the parent's cancellation state and, for a
		// deadline context, reads the virtual now.
		if op.ctx.dl != nil {
			info.Objects.add(clockKey)
		}
		if op.ctx.parent != nil {
			info.Objects.add(op.ctx.parent.done.key)
		}
		info.Objects.add(op.ctx.done.key)
	case opCtxCancel:
		// Cancellation touches the whole subtree's done channels.
		ctxFootprint(op.ctx, &info)
	case opSpawn:
		// No shared objects: commutes with everything.
	case opYield:
		// A yield gates arbitrary invisible statements; its footprint is
		// unknown, so it commutes with nothing (see PendingInfo.Opaque).
		info.Opaque = true
	}
	return
}

// PendingStable reports whether thread t's footprint (PendingOf) can change
// only when t itself steps. Between two scheduling points only the thread
// that stepped and the threads created during that step change their
// pending operation — the invariant World.syncEnabled rests on — so a
// chooser that read t's footprint at the previous thread-choice point may
// carry it to this one when t is neither. Two footprints are volatile all
// the same, because pendingOf reads object state other threads move: the
// clock pseudo-thread's opTimerFire names the timer due next, and an
// opCtxCancel covers a context subtree that grows with every child context.
// False at a case-decision point, where PendingOf maps case indices.
func (c Context) PendingStable(t ThreadID) bool {
	return c.SelectOf == NoThread && c.world.pendingStable(t)
}

func (w *World) pendingStable(t ThreadID) bool {
	if uint(t) >= uint(len(w.threads)) {
		return false
	}
	switch w.threads[t].pending.kind {
	case opTimerFire, opCtxCancel:
		return false
	}
	return true
}

// casePendingOf is Context.PendingOf at a case-decision point: it maps a
// ready *case index* of the select being resolved to that case's
// footprint — the single channel the case would commit on.
func (w *World) casePendingOf(i ThreadID) PendingInfo {
	sel := w.caseSel
	if sel == nil || int(i) < 0 || int(i) >= len(sel.cases) {
		return PendingInfo{}
	}
	info := PendingInfo{}
	info.Objects.add(sel.cases[i].Chan.key)
	return info
}

func (w *World) isVisibleVar(key string) bool {
	if w.opts.Visible == nil {
		return true
	}
	return w.opts.Visible(key)
}
