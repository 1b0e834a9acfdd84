package bench

// The GoTime benchmark family: timeout, ticker and context-cancellation
// bugs — the time.After/select race, the leaked ticker, the inherited
// context deadline, cancellation vs completion — expressed over the
// virtual clock (vthread.Timer/Ticker/Ctx). Wall-clock time is the one
// scheduling dimension the paper's pthread programs could not model at
// all: under the virtual clock a timer firing is an ordinary schedulable
// pseudo-step of the clock thread, so these races are *enumerated* by the
// bounded techniques instead of raced against real time. The family
// extends the registry past GoIdiom (ids 58+, excluded from the Table 1
// reproduction).
//
// Like every suite file, each program confines all state to the body (the
// compiled forms instantiate their environment per run), so one Benchmark
// value can be executed concurrently by the parallel exploration workers.
// Thread counts include the clock pseudo-thread, which occupies a ThreadID
// like any other. Timers, tickers and contexts created by main and used by
// a child compile to object arguments passed at Spawn.

import "sctbench/internal/vthread"

func init() {
	register(&Benchmark{
		ID: 58, Name: "gotime.timeout_vs_result_bad", Suite: "GoTime", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "select on result vs time.After: the timeout step can win over a worker that was about to deliver",
		New:     func() vthread.Runnable { return compiledTimeoutVsResult() },
	})

	register(&Benchmark{
		ID: 59, Name: "gotime.ticker_leak_bad", Suite: "GoTime", Threads: 3,
		BugKind: vthread.FailDeadlock,
		Desc:    "ticker consumer checks a stop flag then receives: Stop between check and receive leaves it blocked forever",
		New:     func() vthread.Runnable { return compiledTickerLeak() },
	})

	register(&Benchmark{
		ID: 60, Name: "gotime.deadline_inherits_bad", Suite: "GoTime", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "child context's generous deadline is cut short by an inherited parent deadline the caller forgot about",
		New:     func() vthread.Runnable { return compiledDeadlineInherits() },
	})

	register(&Benchmark{
		ID: 61, Name: "gotime.cancel_after_close_bad", Suite: "GoTime", Threads: 3,
		BugKind: vthread.FailCrash,
		Desc:    "cancellation cleanup and normal completion race a closed-flag check on the results channel: double close",
		New:     func() vthread.Runnable { return compiledCancelAfterClose() },
	})

	register(&Benchmark{
		ID: 62, Name: "gotime.timer_stop_race_bad", Suite: "GoTime", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "Timer.Stop after the fire leaves the tick buffered; an undrained channel later reads as a spurious timeout",
		New:     func() vthread.Runnable { return compiledTimerStopRace() },
	})

	register(&Benchmark{
		ID: 63, Name: "gotime.ctx_cancel_race_bad", Suite: "GoTime", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "non-blocking Done check then publish: the context can be cancelled in the window, publishing a dead result",
		New:     func() vthread.Runnable { return compiledCtxCancelRace() },
	})
}

func compiledTimeoutVsResult() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	res := p.Chan("res", 1)
	wk := p.Body(0, 0)
	wk.Yield() // the work
	wk.Send(res, 42)
	mn := p.Main()
	w := mn.Spawn(wk)
	// Bug: the timeout path treats "clock fired first" as "the worker
	// failed", but the clock step is just another schedulable step — it can
	// fire before a perfectly healthy worker delivers. Go evaluates the case
	// list before Select: the After registers first, then the select runs
	// over both channels.
	after := mn.After("timeout", 2)
	idx, v, _ := mn.Select([]vthread.SCase{vthread.RecvC(res), vthread.RecvC(after)}, false)
	mn.Join(w)
	mn.Assert(func(t *vthread.Thread) bool { return t.Reg(idx) == 0 && t.Reg(v) == 42 },
		"timed out with the result in flight")
	return p.Build()
}

func compiledTickerLeak() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	stop := p.Var("stop", 0)
	wk := p.Body(0, 1) // object arg 0: the ticker
	// Bug: check-then-act on the stop flag. Between the load and the
	// receive the owner can set the flag and Stop the ticker — a receive on
	// a stopped ticker blocks forever.
	// for i := 0; i < 2 && stop.Load() == 0; i++ — the short-circuit
	// condition loads the flag only once i < 2 has passed.
	i := wk.Let(0)
	wk.While(lt(i, 2), func() {
		s := wk.Load(stop)
		wk.If(ne(s, 0), func() { wk.Break() })
		wk.Recv(wk.OArg(0))
		wk.Set(i, plus(i, 1))
	})
	mn := p.Main()
	tk := mn.NewTicker("tick", 2)
	w := mn.Spawn(wk, tk)
	mn.Yield() // the owner's other work
	mn.Store(stop, 1)
	mn.TickerStop(tk)
	mn.Join(w)
	return p.Build()
}

func compiledDeadlineInherits() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	res := p.Chan("res", 1)
	wk := p.Body(0, 0)
	wk.Sleep("work", 10)
	wk.TrySend(res, 1)
	mn := p.Main()
	parent := mn.WithTimeout("parent", vthread.NoCtx, 5)
	// Bug: the child's own 100-tick budget looks ample for a 10-tick job,
	// but deadlines inherit: the parent's 5-tick deadline cancels the whole
	// subtree first.
	child := mn.WithTimeout("child", parent, 100)
	w := mn.Spawn(wk)
	idx, _, _ := mn.Select([]vthread.SCase{vthread.RecvC(res), vthread.RecvC(child)}, false)
	mn.Join(w)
	mn.Assert(eq(idx, 0), "gave up at now=%d: %s",
		func(t *vthread.Thread) any { return t.Now() },
		func(t *vthread.Thread) any { return t.Obj(child).(*vthread.Ctx).Err() })
	return p.Build()
}

func compiledCancelAfterClose() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	out := p.Chan("out", 2)
	closed := p.Var("closed", 0)
	// Normal completion closes the channel, then publishes the fact on a
	// plain flag.
	wk := p.Body(0, 0)
	wk.Send(out, 1)
	wk.CloseChan(out)
	wk.Store(closed, 1)
	can := p.Body(0, 1) // object arg 0: the context
	can.Recv(can.OArg(0))
	// Bug: "close unless already closed" is a check-then-act on the flag;
	// the worker can close between the load and the Close (Go: panic on
	// double close).
	c := can.Load(closed)
	can.If(eq(c, 0), func() {
		can.CloseChan(out)
	})
	mn := p.Main()
	ctx := mn.WithCancel("req", vthread.NoCtx)
	w := mn.Spawn(wk)
	h := mn.Spawn(can, ctx)
	mn.CtxCancel(ctx)
	mn.Join(w)
	mn.Join(h)
	return p.Build()
}

func compiledTimerStopRace() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	done := p.Chan("done", 1)
	wk := p.Body(0, 1) // object arg 0: the timer
	// The work.
	wk.Yield()
	// Bug: Stop returning false means the timer already fired and its tick
	// sits in the channel; correct code drains the timer's channel here
	// (the documented time.Timer.Stop idiom), this code does not.
	wk.TimerStop(wk.OArg(0))
	wk.Send(done, 1)
	mn := p.Main()
	tm := mn.NewTimer("deadline", 2)
	w := mn.Spawn(wk, tm)
	idx, _, _ := mn.Select([]vthread.SCase{vthread.RecvC(done), vthread.RecvC(tm)}, false)
	mn.Join(w)
	mn.Assert(eq(idx, 0), "spurious timeout from a stale, undrained tick")
	return p.Build()
}

func compiledCtxCancelRace() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	published := p.Var("published", 0)
	wk := p.Body(0, 1) // object arg 0: the context
	// Bug: the default-case Done probe and the publish are two separate
	// steps; cancellation can land in between, so the cancelled request
	// still gets a result.
	idx, _, _ := wk.Select([]vthread.SCase{vthread.RecvC(wk.OArg(0))}, true)
	wk.If(eq(idx, vthread.DefaultCase), func() {
		wk.Store(published, 1)
	})
	mn := p.Main()
	ctx := mn.WithCancel("req", vthread.NoCtx)
	w := mn.Spawn(wk, ctx)
	mn.CtxCancel(ctx)
	seen := mn.Load(published)
	mn.Join(w)
	p2 := mn.Load(published)
	mn.Assert(eqr(p2, seen), "result published after the request was cancelled")
	return p.Build()
}
