package vthread

import "sync"

// Executor is a resettable World: an execution context that is reused
// across many executions instead of being rebuilt per run. The workload of
// systematic concurrency testing is millions of short executions, so
// per-execution overhead dominates; the Executor removes it by recycling
//
//   - thread goroutines: each virtual thread's backing goroutine persists
//     as a parked pool worker that is handed a new body per run instead of
//     being spawned and torn down;
//   - Thread structs, gate channels and park channels;
//   - the trace, enabled-set and name/key buffers of the World;
//   - the Outcome struct itself.
//
// In steady state a run allocates nothing in the substrate — only what the
// program under test allocates for its own objects.
//
// # Continuing from a saved prefix
//
// RunFrom is RunWith for a chooser that repeats the first choices of its
// previous run — a depth-first search after a backtrack. For flat-engine
// runs the Executor then keeps a bounded number of saved prefix states of
// that chooser's last execution and continues the next one from the deepest
// it shares, instead of re-executing the prefix; the Outcome is the same
// either way. The cache belongs to one chooser and one program and dies with
// any other run on the Executor (Run, RunWith, RunFrom by another chooser or
// of another program). See RunFrom and snapshot.go.
//
// # Aliasing contract
//
// Run, RunWith and RunFrom return a pointer to an Outcome that the next run
// overwrites, Outcome.Trace aliases the Executor's internal schedule buffer,
// which the next run rewrites in place, and Outcome.Failure may be the
// World's own failure record, which the next failing run rewrites (a failed
// compiled assertion or a deadlock is recorded there unformatted, so that a
// buggy execution costs what a clean one does). All three are valid only
// until the next run (or Close), and the trace must not be written to: a
// continued run keeps the prefix it shares with the previous one where it
// is. A caller that retains the trace must copy it (sched.Schedule.Clone),
// one that retains the failure must copy it (Failure.Clone, which also
// formats its Message), and one that retains other Outcome fields must copy
// them out before the next run.
//
// # Confinement
//
// An Executor is confined to one goroutine, exactly like a World: Run,
// RunWith, RunFrom and Close must all be called from the same goroutine, and
// distinct Executors share no state, so one Executor per worker goroutine
// is the intended parallel pattern. Reusing an Executor while a run is in
// flight (for example from inside its own Chooser) panics.
//
// Close releases the pooled goroutines; dropping an Executor without
// calling Close leaks its parked workers.
type Executor struct {
	w    World
	free []*Thread // parked pool workers available for the next run
	// flatFree holds recyclable flat-engine threads: bare structs with an
	// interp, no goroutine, no channels. They must never enter free (Close
	// would close their nil jobs channel) and vice versa.
	flatFree []*Thread
	workers  sync.WaitGroup
	outcome  Outcome
	running  bool
	closed   bool
	// cache holds the prefix states of the last RunFrom runs (snapshot.go).
	cache prefixCache

	// defChooser and defSink are the Options the Executor was created
	// with; Run always uses these, regardless of what earlier RunWith
	// calls installed for their runs.
	defChooser Chooser
	defSink    EventSink
}

// NewExecutor creates a reusable execution context. Unlike NewWorld,
// opts.Chooser may be nil if every run supplies its own via RunWith.
func NewExecutor(opts Options) *Executor {
	e := &Executor{defChooser: opts.Chooser, defSink: opts.Sink}
	e.w.init(opts)
	e.w.pool = e
	return e
}

// Run executes program once under the Options the Executor was created
// with. See the type comment for the aliasing contract on the result.
func (e *Executor) Run(program Runnable) *Outcome {
	return e.RunWith(e.defChooser, e.defSink, program)
}

// RunWith executes program once, from its initial state, with this run's
// chooser and event sink (either may differ per run; sink may be nil for no
// observer). The other Options fields (Visible, MaxSteps, BoundsCheck) stay
// as configured. See the type comment for the aliasing contract on the
// result.
//
// Engine selection is by the program's type alone: a closure Program runs on
// the reference (goroutine) engine, a *CompiledProgram on the flat
// single-goroutine engine. AsProgram(cp) runs a compiled program on the
// reference engine through the blocking bridge; the execution is
// bit-identical either way: same trace, Outcome, Failure and events.
func (e *Executor) RunWith(chooser Chooser, sink EventSink, program Runnable) *Outcome {
	e.cache.drop()
	return e.run(chooser, sink, program, nil)
}

// RunFrom is RunWith(chooser, nil, program) for a chooser that can say how
// much of the run is a repeat: for the steps below shared it makes the
// choices it made in the previous run it was given on this Executor (a
// depth-first search after a backtrack; 0 promises nothing and is what a
// chooser's first run on an Executor must pass). The Outcome is the one
// RunWith would return — full-length Trace, every counter, StepStats.FlatSteps
// — but where the Executor holds a saved state of that previous run at a
// depth <= shared, the execution continues from it instead of re-executing
// the prefix (see snapshot.go). States are saved during RunFrom runs only,
// are trusted only for the same chooser (compared as an interface value, so
// choosers passing shared > 0 must be of a comparable type) and program, and
// are discarded by any other run on the Executor. Closure Programs (AsProgram
// bridges included) and programs that create objects at run time are never
// saved: for them RunFrom is RunWith.
func (e *Executor) RunFrom(chooser Chooser, program Runnable, shared int) *Outcome {
	cp, _ := program.(*CompiledProgram)
	if cp == nil || cp.dynamic {
		return e.RunWith(chooser, nil, program)
	}
	c := &e.cache
	var from *snapshot
	if shared > 0 && c.cp == cp && c.owner == chooser {
		from = e.claim(c.resumeAt(shared))
	}
	if from == nil {
		c.drop()
	}
	// Nothing is trusted while the run is in flight: one that panics leaves
	// the cache ownerless, and the next run starts from scratch.
	c.owner = nil
	e.w.cache = c
	defer func() { e.w.cache = nil }()
	out := e.run(chooser, nil, cp, from)
	c.owner, c.cp, c.tail = chooser, cp, out.Threads
	return out
}

// claim takes the thread structs a snapshot names back out of flatFree, where
// the previous run left them (its threads are the last cache.tail entries, in
// id order), for restore to install as the thread table. A snapshot whose
// structs are not the ones found there cannot be restored in place: nil is
// returned, for a run from scratch.
func (e *Executor) claim(s *snapshot) *snapshot {
	if s == nil {
		return nil
	}
	base, n := len(e.flatFree)-e.cache.tail, len(s.threads)
	if base < 0 || n > e.cache.tail {
		return nil
	}
	last := e.flatFree[base:]
	for i := range s.threads {
		if last[i] != s.threads[i].t {
			return nil
		}
	}
	e.flatFree = append(e.flatFree[:base], last[n:]...)
	return s
}

// run is one execution: from the initial state, or — flat engine only — from
// a claimed snapshot.
func (e *Executor) run(chooser Chooser, sink EventSink, program Runnable, from *snapshot) *Outcome {
	if chooser == nil {
		panic("vthread: Executor run without a Chooser")
	}
	if e.closed {
		panic("vthread: Executor run after Close")
	}
	if e.running {
		panic("vthread: Executor reused while a run is in flight")
	}
	e.running = true
	defer func() { e.running = false }()

	e.w.opts.Chooser = chooser
	e.w.opts.Sink = sink
	e.w.reset()
	switch p := program.(type) {
	case Program:
		e.w.exec(p)
	case *CompiledProgram:
		e.w.execFlat(p, from)
	default:
		panic("vthread: Executor run on unknown Runnable implementation")
	}
	e.w.fillOutcome(&e.outcome)

	// Every body has finished (exec waits on the per-run WaitGroup; execFlat
	// retires threads inline), so the workers are parked on their jobs
	// channels again: recycle them, each kind into its own pool. The clock
	// pseudo-thread is neither — no goroutine, no jobs channel — and must
	// never enter a pool (Close would close its nil jobs and acquire would
	// hand it to a program thread); the World keeps its struct separately
	// (clock.cached).
	for _, t := range e.w.threads {
		switch {
		case t.isClock:
		case t.flat:
			e.flatFree = append(e.flatFree, t)
		default:
			e.free = append(e.free, t)
		}
	}
	e.w.threads = e.w.threads[:0]
	return &e.outcome
}

// StepStats reports which engine ran the Executor's steps across all runs
// so far (see StepStats). Must be called between runs, like Run.
func (e *Executor) StepStats() StepStats { return e.w.StepStats() }

// acquire pops a parked pool worker, or creates one (struct, channels,
// goroutine) when the pool has none spare. Called by newThread.
func (e *Executor) acquire() *Thread {
	if n := len(e.free); n > 0 {
		t := e.free[n-1]
		e.free = e.free[:n-1]
		return t
	}
	t := &Thread{
		gate:  make(chan struct{}),
		jobs:  make(chan Program, 1),
		first: make(chan parkKind, 1),
	}
	e.workers.Add(1)
	go t.workerLoop(&e.workers)
	return t
}

// acquireFlat pops a recyclable flat-engine thread, or creates a bare
// struct (no goroutine, no channels). Called by newFlatThread.
func (e *Executor) acquireFlat() *Thread {
	if n := len(e.flatFree); n > 0 {
		t := e.flatFree[n-1]
		e.flatFree = e.flatFree[:n-1]
		return t
	}
	return &Thread{}
}

// Close shuts down the pooled worker goroutines and waits for them to
// exit. Idempotent; must not be called while a run is in flight. After
// Close, Run and RunWith panic.
func (e *Executor) Close() {
	if e.closed {
		return
	}
	if e.running {
		panic("vthread: Executor.Close during a run")
	}
	e.closed = true
	for _, t := range e.free {
		close(t.jobs)
	}
	e.free = nil
	e.flatFree = nil // nothing to shut down: flat threads have no goroutine
	e.workers.Wait()
}
