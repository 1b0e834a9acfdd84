// Package sctbench is a systematic concurrency testing (SCT) library for
// Go, reproducing "Concurrency Testing Using Schedule Bounding: an
// Empirical Study" (Thomson, Donaldson, Betts — PPoPP 2014).
//
// Programs under test are written against an explicit virtual-threading
// API (Thread, Mutex, Cond, Sem, Barrier, IntVar, Atomic, Array). The
// library then explores thread schedules systematically — unbounded
// depth-first search, iterative preemption bounding, iterative delay
// bounding — or randomly, reports the first buggy schedule as a replayable
// witness, and implements the full experimental pipeline of the paper
// (dynamic race detection to choose visible operations, then bounded
// exploration with schedule-limit accounting).
//
// # Quickstart
//
//	prog := func(t *sctbench.Thread) {
//		v := t.NewVar("counter", 0)
//		inc := func(w *sctbench.Thread) { v.Add(w, 1) }
//		a, b := t.Spawn(inc), t.Spawn(inc)
//		t.Join(a)
//		t.Join(b)
//		t.Assert(v.Load(t) == 2, "lost update: %d", v.Load(t))
//	}
//	res := sctbench.Explore(sctbench.IDB, sctbench.Config{Program: prog})
//	if res.BugFound {
//		fmt.Println(res.Failure, res.Witness)
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured comparison of every table and figure.
package sctbench

import (
	"sctbench/internal/explore"
	"sctbench/internal/race"
	"sctbench/internal/sched"
	"sctbench/internal/simplify"
	"sctbench/internal/vthread"
)

// Re-exported program-authoring API. These are aliases, so values flow
// freely between the public surface and the internal engines.
type (
	// Thread is a virtual thread of the program under test.
	Thread = vthread.Thread
	// Program is the body of the initial thread.
	Program = vthread.Program
	// Runnable is either a closure Program or a *CompiledProgram; every
	// entry point that executes a program accepts both.
	Runnable = vthread.Runnable
	// CompiledProgram is a program in instruction form (built with a
	// Builder); it runs on the goroutine-free flat engine.
	CompiledProgram = vthread.CompiledProgram
	// Builder constructs CompiledPrograms.
	Builder = vthread.Builder
	// Code is one thread body under construction in a Builder.
	Code = vthread.Code
	// Mutex is a non-recursive lock.
	Mutex = vthread.Mutex
	// Cond is a FIFO condition variable.
	Cond = vthread.Cond
	// Sem is a counting semaphore.
	Sem = vthread.Sem
	// Barrier is an n-party generation barrier.
	Barrier = vthread.Barrier
	// IntVar is a shared integer variable.
	IntVar = vthread.IntVar
	// Atomic is a shared integer with SC-atomic operations.
	Atomic = vthread.Atomic
	// Array is a shared integer array with a modelled bounds checker.
	Array = vthread.Array
	// Chan is a bounded FIFO channel: a first-class substrate primitive
	// whose Send/Recv/Try*/Close are single visible operations, usable as
	// cases of a multi-way Select.
	Chan = vthread.Chan
	// SelectCase is one send or receive case of Thread.Select.
	SelectCase = vthread.SelectCase
	// WaitGroup models sync.WaitGroup (negative counters crash, as in Go).
	WaitGroup = vthread.WaitGroup
	// Once models sync.Once (reentrant Do self-deadlocks, as in Go).
	Once = vthread.Once
	// Timer is a one-shot virtual timer (time.Timer over the virtual
	// clock): its firing is a schedulable pseudo-step of the clock thread,
	// explored like any other scheduling choice instead of raced against
	// wall time. Created with Thread.NewTimer/Thread.After.
	Timer = vthread.Timer
	// Ticker is a repeating virtual timer (time.Ticker over the virtual
	// clock); a leaked ticker fires once into its full slot and goes
	// quiet, so a receiver blocked after Stop is a modelled deadlock.
	Ticker = vthread.Ticker
	// Ctx models context.Context as a derived-cancellation tree over
	// channel close semantics: WithCancel/WithTimeout build the tree,
	// Done exposes the cancellation channel, and deadline firings are
	// clock steps. Created with Thread.WithCancel/Thread.WithTimeout.
	Ctx = vthread.Ctx
	// Footprint is the N-ary set of shared-object keys a pending operation
	// touches, as exposed to choosers via PendingInfo.
	Footprint = vthread.Footprint
	// ThreadID identifies a thread (creation order, 0 = initial).
	ThreadID = vthread.ThreadID
	// Schedule is a sequence of thread choices — the unit of exploration.
	Schedule = sched.Schedule
	// Failure describes an exposed bug.
	Failure = vthread.Failure
	// Outcome summarises a single execution.
	Outcome = vthread.Outcome
	// Config parameterises an exploration.
	Config = explore.Config
	// Result is the outcome of an exploration.
	Result = explore.Result
	// Technique selects an exploration technique.
	Technique = explore.Technique
	// Checkpoint is a serialized exploration frontier: an interrupted or
	// deadline-stopped search (Config.CheckpointPath) can be reloaded with
	// LoadCheckpoint and continued with Resume, finishing with exactly the
	// result an uninterrupted run produces.
	Checkpoint = explore.Checkpoint
	// CheckpointMeta is caller context (benchmark name, promoted variable
	// set) carried verbatim inside checkpoint files so a resume can rebuild
	// the same program and visibility.
	CheckpointMeta = explore.CheckpointMeta
	// StopReason says why an exploration ended (Result.Stopped).
	StopReason = explore.StopReason
	// Chooser decides the next thread at each scheduling point; implement
	// it to plug in a custom search strategy. A Chooser instance is
	// confined to one execution — it is never called concurrently, though
	// the substrate invokes it from the running virtual thread's goroutine
	// — so give every concurrent World its own. Choose is called at every
	// scheduling point, single-enabled ones included.
	Chooser = vthread.Chooser
	// WorldOptions configures a single raw execution (advanced use). Each
	// World is confined to the goroutine that runs it — one world per
	// goroutine; see vthread.Options for the full concurrency contract.
	WorldOptions = vthread.Options
	// Executor is a reusable execution context: thread goroutines and all
	// per-execution buffers are recycled across runs, making a long
	// sequence of executions allocation-free in the substrate. Every
	// exploration driver in this library runs on Executors internally;
	// expose it for custom search loops that call Run/RunWith millions of
	// times. The returned Outcome, its Trace and its Failure are valid
	// only until the next run — Clone what you retain (Failure.Clone also
	// formats the message, which the run itself leaves to whoever keeps
	// it) — and an Executor is confined to one goroutine (one Executor per
	// worker). Close it when done.
	Executor = vthread.Executor
)

// DefaultCase is the index Thread.Select returns when its default fires.
const DefaultCase = vthread.DefaultCase

// Context cancellation causes reported by Ctx.Err.
const (
	// CtxCanceled is Ctx.Err after an explicit Cancel (context.Canceled).
	CtxCanceled = vthread.CtxCanceled
	// CtxDeadlineExceeded is Ctx.Err after a deadline fire
	// (context.DeadlineExceeded).
	CtxDeadlineExceeded = vthread.CtxDeadlineExceeded
)

// RecvCase builds a receive case for Thread.Select.
func RecvCase(c *Chan) SelectCase { return vthread.RecvCase(c) }

// SendCase builds a send case for Thread.Select.
func SendCase(c *Chan, v int) SelectCase { return vthread.SendCase(c, v) }

// NewExecutor creates a reusable execution context (see Executor). Unlike
// RunOnce, opts.Chooser may be nil if every run supplies its own chooser
// via RunWith.
func NewExecutor(opts WorldOptions) *Executor {
	return vthread.NewExecutor(opts)
}

// Exploration techniques (the paper's §5 phases).
const (
	// DFS is unbounded depth-first search.
	DFS = explore.DFS
	// IPB is iterative preemption bounding.
	IPB = explore.IPB
	// IDB is iterative delay bounding.
	IDB = explore.IDB
	// Rand is the naive random scheduler.
	Rand = explore.Rand
	// DPOR is unbounded depth-first search with source-set style dynamic
	// partial-order reduction plus sleep sets: the same bug verdicts as
	// DFS over typically far fewer executions, with redundant runs cut
	// short by chooser-initiated abort. Parallel (Config.Workers > 1)
	// DPOR preserves verdicts and completeness; its schedule counts are
	// exact unless splitting a unit duplicated an equivalence class.
	DPOR = explore.DPOR
)

// Failure kinds.
const (
	// FailAssert is an assertion or output-check failure.
	FailAssert = vthread.FailAssert
	// FailDeadlock is a global deadlock.
	FailDeadlock = vthread.FailDeadlock
	// FailCrash is a modelled memory-safety crash.
	FailCrash = vthread.FailCrash
	// FailPanic is a Go panic in the program body, contained by the
	// substrate and reported as an ordinary replayable failure.
	FailPanic = vthread.FailPanic
)

// Stop reasons (Result.Stopped).
const (
	// StopCompleted (the zero value) is a natural end of the search.
	StopCompleted = explore.StopCompleted
	// StopLimit means a schedule or execution budget truncated the search.
	StopLimit = explore.StopLimit
	// StopDeadline means Config.Deadline passed.
	StopDeadline = explore.StopDeadline
	// StopInterrupted means Config.Interrupt was closed.
	StopInterrupted = explore.StopInterrupted
)

// LoadCheckpoint reads and validates a checkpoint file written by an
// exploration with Config.CheckpointPath set.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return explore.LoadCheckpoint(path)
}

// Resume continues a checkpointed exploration. cfg supplies the program
// and environment (Program, Visible, BoundsCheck, MaxSteps, Workers) plus
// fresh stop/checkpoint controls; the search parameters
// (Limit, Seed, MaxBound, MaxExecutions) come from the checkpoint. A run
// that was interrupted, checkpointed and resumed finishes with exactly
// the result — counts, bounds, witness — of an uninterrupted run.
func Resume(ck *Checkpoint, cfg Config) (*Result, error) {
	return explore.Resume(ck, cfg)
}

// Explore searches the schedule space of cfg.Program with the given
// technique and reports what it found (bug, witness schedule, schedule
// counts). It is the main entry point of the library.
//
// Set Config.Workers > 1 to explore in parallel: DFS/IPB/IDB partition the
// search tree among the unit scheduler's workers (and IPB/IDB additionally
// overlap bound k+1 speculatively behind bound k), while Rand shards its
// independent runs. For Rand and DFS/IPB/IDB every Result field but the
// work tallies (Executions, TotalSteps, AbortedExecutions) is identical to
// a sequential exploration's — counts, bounds, completeness, first bug,
// witness — whether the search completes or Config.Limit truncates it:
// the schedules inside the budget are the canonically first ones, at the
// price of up to about Workers × Limit extra executions, which the
// tallies report. DPOR alone is verdict-level (see Config.Workers). With
// Workers > 1 the Program body runs concurrently in separate Worlds and
// must confine its state to the invocation.
func Explore(t Technique, cfg Config) *Result {
	return explore.Run(t, cfg)
}

// ExploreSleepSet performs depth-first search with sleep-set partial-order
// reduction: it covers the same failure states as Explore(DFS, …) while
// counting only one representative schedule per equivalence class of
// commuting operations — often orders of magnitude fewer. Runs detected
// as redundant are cut short through the chooser-abort path rather than
// executed to termination (Result.AbortedExecutions counts them). (The
// paper's §7 names partial-order reduction as the natural extension of
// the study; Explore(DPOR, …) adds race-driven backtracking on top and
// does run on the parallel pool.) Sleep-set search is sequential:
// Config.Workers is ignored here (it is the DPOR walker with its race
// analysis off and could be partitioned the same way; no driver does yet).
func ExploreSleepSet(cfg Config) *Result {
	return explore.RunSleepSetDFS(cfg)
}

// Minimize simplifies a buggy schedule: it greedily merges same-thread
// blocks while the bug still reproduces, reducing the preemption count —
// the "simple counterexample traces" benefit of §1 of the paper, made
// available for witnesses found by unbounded or random search. newProgram
// must build a fresh program instance per call.
func Minimize(newProgram func() Runnable, witness Schedule, visible func(string) bool) *MinimizedWitness {
	return simplify.Minimize(newProgram, witness, simplify.Options{Visible: visible})
}

// MinimizedWitness is the result of Minimize.
type MinimizedWitness = simplify.Result

// DetectRaces performs the paper's race-detection phase: runs independent
// randomly scheduled executions of program with every shared access
// visible, and returns the union of variables involved in data races. Feed
// the result to Promote to obtain the Visible predicate for Config.
func DetectRaces(program Runnable, runs int, seed uint64) []string {
	return race.RunPhase(race.PhaseConfig{Program: program, Runs: runs, Seed: seed}).Racy
}

// Promote converts a racy-variable list (from DetectRaces) into the
// Config.Visible predicate: exactly those variables become scheduling
// points.
func Promote(racy []string) func(key string) bool {
	return race.Promoted(racy)
}

// Replay executes program under the recorded schedule and returns the
// outcome. ok is false when the schedule is infeasible for this program
// (replay diverged). Use it to reproduce a Result.Witness.
func Replay(program Runnable, s Schedule) (out *Outcome, ok bool) {
	rep := vthread.NewReplay(s)
	w := vthread.NewWorld(vthread.Options{Chooser: rep})
	o := w.Run(vthread.AsProgram(program))
	return o, !rep.Failed()
}

// ReplayVisible is Replay with an explicit visibility predicate; a witness
// recorded under promoted visibility only replays under the same
// visibility.
func ReplayVisible(program Runnable, s Schedule, visible func(string) bool) (out *Outcome, ok bool) {
	rep := vthread.NewReplay(s)
	w := vthread.NewWorld(vthread.Options{Chooser: rep, Visible: visible})
	o := w.Run(vthread.AsProgram(program))
	return o, !rep.Failed()
}

// RunOnce executes program once under a caller-supplied chooser (round
// robin by default) — the lowest-level entry point. The execution world is
// confined to the calling goroutine (one world per goroutine): concurrent
// RunOnce calls are safe provided each passes its own Chooser/Sink and the
// program body keeps all state local to the invocation. For a loop of many
// executions, use NewExecutor instead: it recycles the per-execution
// goroutines and buffers that RunOnce rebuilds every call.
func RunOnce(program Runnable, opts WorldOptions) *Outcome {
	if opts.Chooser == nil {
		opts.Chooser = vthread.RoundRobin()
	}
	return vthread.NewWorld(opts).Run(vthread.AsProgram(program))
}

// NewBuilder starts a new compiled program. Programs in instruction form
// execute on the flat single-goroutine engine (see the vthread package
// docs), which steps the same schedules as the goroutine engine several
// times faster; every entry point taking a Runnable accepts the result of
// Build.
func NewBuilder() *Builder { return vthread.NewBuilder() }

// AsProgram converts any Runnable to a closure Program (a CompiledProgram
// is bridged onto the goroutine engine, trace-identically).
func AsProgram(r Runnable) Program { return vthread.AsProgram(r) }

// RoundRobin returns the deterministic non-preemptive round-robin chooser
// (the zero-delay scheduler of delay bounding).
func RoundRobin() Chooser { return vthread.RoundRobin() }

// RandomChooser returns the naive uniform random chooser with the given
// seed.
func RandomChooser(seed uint64) Chooser { return vthread.NewRandom(seed) }

// NewRef creates a shared variable of arbitrary type T in the program
// under test (free function because Go methods cannot add type
// parameters).
func NewRef[T any](t *Thread, name string, init T) *Ref[T] {
	return vthread.NewRef[T](t, name, init)
}

// Ref is a shared variable of arbitrary type.
type Ref[T any] = vthread.Ref[T]
