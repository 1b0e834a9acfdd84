package vthread

// Design notes for maintainers — the handoff protocol in one place.
//
// # Serialised execution and the baton
//
// One World = one execution. Each virtual thread is a goroutine, but the
// protocol guarantees at most one runs at any instant: a conceptual baton
// — the right to execute program code *and* to run the next scheduling
// decision — is held by exactly one goroutine at a time. The exec
// goroutine (the Run caller) holds it at the start; after the initial
// grant it rides the virtual threads and returns to exec only when the
// execution is over.
//
// # Step handoff protocol
//
// One scheduling decision is made per visible operation, and every one of
// them — single-enabled points included — consults the Chooser
// (World.nextStep → choose). exec makes the first decision on the Run
// caller's goroutine and performs the initial grant. From then on a
// running thread that reaches its next visible operation does not notify
// a central loop; it runs the decision itself (World.continueFrom →
// nextStep), on its own goroutine, and one of two transfers follows:
//
//	same-thread continuation (0 switches)      — the decision picked the
//	    running thread again: visible() simply returns and the thread
//	    proceeds into its granted operation. This is the overwhelmingly
//	    common case under round-robin, replay, non-preempted DFS prefixes
//	    and PCT between change points.
//
//	direct baton handoff (1 switch)            — the decision picked
//	    another thread U:
//
//	    thread T goroutine                 thread U goroutine
//	    ------------------                 ------------------
//	    pending = op; state = parked
//	    nextStep() picks U
//	    U.gate <- struct{}{}       ──────▶ returns from awaitGrant
//	    <-T.gate  (blocks)                 executes its pending visible op
//	                                       …until its own next visible op
//
// When a thread's body returns, its goroutine runs one last decision
// (World.exitFrom) and passes the baton on before going back to the pool.
// When the execution is over — terminal, deadlock, failure, step limit,
// chooser abort — whoever holds the baton sends parkDone (failNow sends
// parkFailed) on w.parked: the end-of-run handback, the one message exec
// waits for before it tears the world down. A panic out of a chooser
// running on a thread goroutine is captured into w.schedPanic and
// rethrown by exec on the Run caller's goroutine, so a chooser bug
// surfaces where Run was called.
//
// Exactly one goroutine holds the baton at any instant, every transfer is
// a channel operation, and every shared field of the World is accessed
// only by the baton holder (or by exec after the final handback), so no
// locks are needed anywhere in the substrate and the chooser — though it
// migrates between goroutines — is never called concurrently. `go test
// -race ./internal/vthread` runs clean. Which goroutine computes a
// decision has no bearing on pooling, and the kill-by-grant teardown
// below is driven by exec.
//
// # The scheduling point and the enabled set
//
// A scheduling point costs what changed since the previous one. The World
// keeps its enabled set (World.enabled, ascending) across points and
// World.syncEnabled brings it up to date under one invariant, kept by both
// engines: between two scheduling points only the thread that stepped and
// the threads created during that step change state or pending operation.
// So the stepped thread and the new ones are taken in; every other
// thread's enabledness can move only if its pending operation is
// conditional — one whose enabledness reads object state: lock,
// cond-resume, sem-P, join, barrier-wait, r-lock, w-lock, chan-send,
// chan-recv, select without a default, wg-wait, once-do, timer-fire — and
// exactly those threads, kept on an intrusive list, are re-evaluated.
// pendingOp.enabled reports "executable now" and "conditional" from one
// switch. A non-blocking channel operation (opChanTry) and the first half
// of a condvar wait (opCondWait, which only releases and enqueues; the
// blocking half is opCondResume) are unconditional, like everything not
// listed. The evaluate-every-thread scan is the oracle the maintained set is
// compared with in enabled_oracle_test.go, through a World test
// hook (enabledCheck, nil outside tests).
//
// Context.Enabled aliases that set: strictly ascending, never empty, valid
// only during the Choose call, updated in place before the next one. Each
// member carries its index in the set (Thread.pos), so the previous
// thread's membership flag and index give LastEnabled and the rotation point
// of the canonical order, and the chooser's pick is validated by its flag
// and positioned in that order — its delay cost — by its index, all in
// O(1). Only a previous thread that has left the set costs a binary search
// (sched.CanonicalStart) for the first member after it. The searches are the
// reference of position_oracle_test.go (hook positionCheck, nil outside
// tests).
//
// # Spawn and the private first park
//
// Spawn runs the child's invisible prefix eagerly (newThread sends the
// first grant itself and consumes the child's first park from a private
// channel). This keeps "a thread's first schedulable step is its first
// visible operation" — matching the §2 step model — and avoids a spurious
// start pseudo-op inflating schedule counts. The spawner holds the baton
// for the duration of the spawn, so the child's first park goes to the
// private channel, not to the scheduler; once it is consumed, the child's
// parkTo is cleared to nil and all of its later parks schedule inline
// (baton mode).
//
// # Teardown and the worker pool
//
// When the outcome is decided (terminal, deadlock, failure, step limit),
// abortRemaining marks every live thread killed and sends one last grant
// on its gate; the thread's receive returns, it panics with killSignal,
// and the recover in runBody unwinds it without touching shared state.
// The gate is deliberately *sent to*, never closed: under an Executor the
// same Thread struct, gate and goroutine serve the next execution. A run
// ends only after wg.Wait sees every body finish, so studies running
// millions of executions cannot leak goroutines (tested).
//
// A pooled thread's goroutine is workerLoop: it receives one Program per
// execution on t.jobs, runs it via runBody, signals the per-run WaitGroup
// and parks again. newThread re-initialises all per-execution Thread
// fields before sending on t.jobs, and the channel send/receive pair
// provides the happens-before edge that makes the reuse race-free. A
// plain World spawns runOne instead — same runBody, goroutine exits after
// one body.
//
// # Panic containment
//
// A Go panic escaping a program body is a found bug, not a crash: the
// recover in runBody (reference engine) and the one recover of the flat
// step loop (flat engine, see below) convert it into
// Failure{Kind: FailPanic} carrying the panicking thread id and the panic
// value's message, with the executed prefix as the trace — so a panic is
// replayable and minimisable exactly
// like an assertion failure or a deadlock. Containment reuses the normal
// failure teardown (abortRemaining, wg.Wait), so the Executor and its
// thread pool stay reusable after a panicking run, and a worker pool
// exploring in parallel survives a panicking unit. The one exception is
// engine-misuse panics (misuseError, e.g. using a Thread outside its
// execution): those are rethrown to the Run caller instead of
// masquerading as a found FailPanic bug, as are panics out of a Chooser
// (w.schedPanic above). Both engines take the same path and report the
// same verdict; panic_test.go pins the contract.
//
// # Chooser-initiated abort
//
// A Chooser may end an execution early by calling ctx.Abort() inside
// Choose. The decision then returns the baton to exec before performing
// another step and reuses the normal teardown: abortRemaining kills the
// surviving threads by grant, the outcome carries Aborted=true,
// Failure=nil and the executed prefix as its Trace, and under an Executor
// the same pool serves the next run. Abort is idempotent within one Choose call, legal
// at step 0 (nothing has run; the trace is empty), and the thread id
// returned by the aborting Choose is ignored — it need not be enabled.
// This is the pruning hook of the partial-order-reduction engines
// (internal/explore/sleepset.go and dpor.go): a run whose remainder is
// provably redundant is cut short instead of executed to termination.
//
// # Case-decision points (multi-way select)
//
// Thread.Select introduces a second kind of scheduling point. When the
// scheduler grants a thread whose pending op is a select with two or more
// ready cases, the World consults the Chooser once more before the step
// executes: Context.SelectOf names the selecting thread and Enabled holds
// the ready case indices (see Context.SelectOf for the full shape). The
// pick is appended to the trace right after the thread's own entry, so a
// trace is no longer a pure thread-id sequence — a case entry's value is
// a case index, positioned deterministically by the schedule prefix.
// Replay needs no special handling (it replays trace positions), both
// schedule-cost models assign every case pick cost zero, and
// Outcome.SelectPoints counts the decision points. With zero (default
// fires) or one ready case there is no decision and no extra entry.
//
// # Timer-firing protocol (the virtual clock)
//
// Timers, tickers and context deadlines (timer.go, context.go) introduce
// a third step source: the clock pseudo-thread. The first arm of a run
// appends a goroutine-less Thread with isClock set to the thread table at
// the next dense id; its permanent pending op is opTimerFire, enabled
// while some timer is fireable and some program thread is live. To every
// engine the clock is indistinguishable from a thread: it appears in
// enabled sets, costs preemptions/delays by the ordinary arithmetic,
// lands in the trace and replays by position.
//
// What differs is execution. The clock has no goroutine, so the baton is
// never handed to it: when nextStep's decision picks the clock id, the
// deciding goroutine accounts the step and executes the fire inline
// (World.fireTimer), then loops to the next decision still holding the
// baton. Which timer fires is not a choice — the fireable timer with the
// smallest (deadline, arm sequence) fires and the virtual now advances to
// its deadline — so a clock trace entry is a deterministic function of
// the schedule prefix and replay needs no special handling.
//
// Fireability doubles as leak semantics: a delivery timer is fireable
// only while its one-slot channel has room, so a leaked ticker fires
// once and goes quiet, and a receiver blocked on a stopped or saturated
// timer is a real modelled deadlock ("blocked forever") while one
// blocked on a fireable timer is not ("blocked until the timer fires" —
// finishIdle reports armed-but-dead timers in the deadlock message).
// Every arm reads the virtual now and every fire advances it, so all
// arm/fire footprints share clockKey — that is what lets the
// partial-order engines see that arms and fires never commute. The clock
// Thread never enters the Executor pool (the Executor filters isClock; the
// struct is cached on World.clk across runs) and all clock state is
// cleared by reset, so reuse cannot carry virtual time across runs.
//
// # The flat engine and compiled programs
//
// Everything above describes the reference engine: virtual threads are
// goroutines and a schedule is enforced by parking all but one of them.
// The second engine (flat.go) executes a whole multi-threaded run on the
// Run caller's single goroutine — but it can only do so for programs in
// instruction form. A *CompiledProgram (prog.go, built with the Builder
// DSL in builder.go) is the program as data: declared objects, bodies as
// instruction slices, operands compiled to closures over a per-thread
// register file. One interp per thread registers the next visible
// operation by filling Thread.pending (interp.advance) and performs a
// granted operation as a plain function call (interp.perform) — a context
// switch is a switch statement, not a channel rendezvous. Both engines
// funnel every effect through the same commit helpers and both drive the
// same World.nextStep decision loop, which is why a flat run is
// bit-identical — trace, Outcome, Failure, event stream, footprints — to
// the same program's reference run, and why this whole file remains true
// under the flat engine with "goroutine switch" read as "function call".
//
// Containment and failure take two routes there, neither paid per step.
// World.stepFlat is the step loop — the next decision, the granted
// operation's perform, the advance to the thread's next registration — under
// one deferred recover per run: a crash a commit helper raises through
// failNow's killSignal, or any other panic of an operand closure (recorded
// as FailPanic), ends the loop, and execFlat re-enters it for the recorded
// failure to end the run at the next decision. Misuse diagnostics are
// rethrown, and a panic out of the decision itself (a chooser) is not
// recovered at all. A child's invisible prefix, run inside its spawner's
// step, has its own recover (runFlatPrefix), so the spawner carries on as
// on the reference engine. A failed compiled assertion does not unwind:
// interp.failMsg records the failure (unformatted, in the World's failure
// record: see Failure), retires the thread and advance
// returns; flatAdvance gives the retired thread no exit release edge, as
// the unwinding failNow gives none. Only the blocking bridge (runBlocking)
// still unwinds a failed assertion, because there a goroutine must give the
// baton back.
//
// Engine selection is by representation, at the Executor, and nothing else
// selects it: RunWith runs a closure Program on the reference engine and a
// *CompiledProgram on the flat engine (StepStats counts FlatSteps). To run a
// compiled program on the reference engine, pass AsProgram(cp), the blocking
// bridge; a single-use World always takes it. See prog.go for the
// registration/perform protocol and the op-for-op translation contract that
// equivalence rests on, internal/bench/equiv_test.go for the registry-wide
// enforcement, and vthread_test's opcode coverage guard for what keeps this
// package's generated closure/compiled test pair sufficient.
//
// # Continuing from a saved prefix (Executor.RunFrom)
//
// Every run above starts from the program's initial state. A depth-first
// search runs executions that differ from their predecessor only below the
// backtrack point, and Executor.RunFrom lets it say so: "for the steps below
// shared, this chooser makes the choices it made in its previous run here".
// During RunFrom runs of a CompiledProgram on the flat engine the World saves
// its state at some scheduling points (snapshot.go: the World's counters and
// enabled-set bookkeeping, the trace length, the virtual clock, every thread's
// pending operation and registers, the value of every object, declared or
// created by the run), and a later RunFrom
// continues from the deepest saved point at or below shared instead of
// re-executing the prefix. The state is written back into the same Thread
// and object structs, because pending operations, lock owners, waiter lists
// and object registers point at them; so a saved state is usable only while
// those structs are what the Executor hands the run, and only for the chooser
// and program it came from. The Executor checks all three, and any other run
// on it — RunWith, Run, another chooser, another program — discards what was
// saved. The cache is only ever a cache: the Outcome (full-length Trace, every
// counter) and StepStats.FlatSteps are those of a run from the initial state;
// StepStats.RunsResumed, StepsSkipped and Snapshots say what it did instead.
// Closure Programs (AsProgram bridges included), whose goroutine stacks cannot
// be saved, never are: for them RunFrom is RunWith. What RunFrom asks of a
// program is what prog.go asks already: operand closures are pure functions
// of registers, cells and object registers, because a continued run does not
// evaluate the prefix's operands again.
//
// # Determinism contract
//
// Programs under test must be deterministic modulo scheduling: no Go
// maps iterated for control flow, no wall-clock time (virtual time via
// Thread.NewTimer/After/Sleep/NewTicker is fine — that is what it is
// for), no randomness, no I/O. Given that, a recorded Schedule replays
// to the identical trace, costs and failure — the foundation of
// stateless model checking (§2 of the paper).
