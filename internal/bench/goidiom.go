package bench

// The GoIdiom benchmark family: Go's native concurrency idioms — worker
// pools over channels, fan-in/fan-out pipelines, cancellation via closed
// channels, multi-way select, sync.WaitGroup and sync.Once — none of which
// the pthread-style SCTBench programs (or the original study) could
// express. The family extends the registry past the paper's 52 rows (ids
// 52+, excluded from the Table 1 reproduction) and re-runs the technique
// comparison on a scenario class with a decision dimension the paper's
// programs lack: a multi-way select with several ready cases is a
// *case-decision* scheduling point (vthread.Context.SelectOf), so two of
// these bugs are reachable with zero preemptions and zero delays — pure
// select nondeterminism, cost-free for the bounded techniques — while the
// rest are classic one-preemption check-then-act races dressed in channel
// clothing.
//
// Like every suite file, each program confines all state to the body (the
// compiled forms instantiate their environment per run), so one Benchmark
// value can be executed concurrently by the parallel exploration workers.
// Plain Go locals shared between closures (pipeline_bad's `total`,
// select_starve_bad's `processed`) compile to invisible Cells.

import "sctbench/internal/vthread"

func init() {
	register(&Benchmark{
		ID: 52, Name: "goidiom.workerpool_bad", Suite: "GoIdiom", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "worker pool over a jobs channel: unsynchronised result aggregation loses an update",
		New:     func() vthread.Runnable { return compiledWorkerpool() },
	})

	register(&Benchmark{
		ID: 53, Name: "goidiom.pipeline_bad", Suite: "GoIdiom", Threads: 4,
		BugKind: vthread.FailCrash,
		Desc:    "fan-in pipeline: racy last-producer-closes flag double-closes the merged channel",
		New:     func() vthread.Runnable { return compiledPipeline() },
	})

	register(&Benchmark{
		ID: 54, Name: "goidiom.cancel_bad", Suite: "GoIdiom", Threads: 3,
		BugKind: vthread.FailDeadlock,
		Desc:    "cancellation via closed channel: worker honours the done case while the producer still blocks on a send",
		New:     func() vthread.Runnable { return compiledCancel() },
	})

	register(&Benchmark{
		ID: 55, Name: "goidiom.wgdone_bad", Suite: "GoIdiom", Threads: 3,
		BugKind: vthread.FailCrash,
		Desc:    "double Done: two cleanup paths race on an ownership flag and both decrement the WaitGroup",
		New:     func() vthread.Runnable { return compiledWgdone() },
	})

	register(&Benchmark{
		ID: 56, Name: "goidiom.select_starve_bad", Suite: "GoIdiom", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "select starvation: the quit case can win over pending requests, which then go unprocessed",
		New:     func() vthread.Runnable { return compiledSelectStarve() },
	})

	register(&Benchmark{
		ID: 57, Name: "goidiom.once_reenter_bad", Suite: "GoIdiom", Threads: 3,
		BugKind: vthread.FailDeadlock,
		Desc:    "Once reentrancy: a racy readiness flag lets the init body re-enter its own Once (Go: self-deadlock)",
		New:     func() vthread.Runnable { return compiledOnceReenter() },
	})
}

func compiledWorkerpool() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	jobs := p.Chan("jobs", 3)
	sum := p.Var("sum", 0)
	wg := p.WaitGroup("wg")
	wk := p.Body(0, 0)
	wk.While(true, func() {
		v, ok := wk.Recv(jobs)
		wk.If(eq(ok, 0), func() { wk.Break() })
		// Bug: the aggregate is a plain read-modify-write; two workers
		// interleaving here lose an update.
		wk.AddVar(sum, v)
	})
	wk.WGDone(wg)
	mn := p.Main()
	mn.WGAdd(wg, 2)
	mn.Spawn(wk)
	mn.Spawn(wk)
	for i := 1; i <= 3; i++ {
		mn.Send(jobs, i)
	}
	mn.CloseChan(jobs)
	mn.WGWait(wg)
	c1 := mn.Load(sum)
	c2 := mn.Load(sum)
	mn.Assert(eq(c1, 6), "worker pool lost an update: sum=%d", c2)
	return p.Build()
}

func compiledPipeline() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	out := p.Chan("out", 4)
	wg := p.WaitGroup("producers")
	closed := p.Var("closed", 0)
	total := p.Cell(0) // the consumer's plain Go local, shared with main
	prod := p.Body(1, 0)
	prod.Send(out, prod.Arg(0))
	prod.Send(out, plus(prod.Arg(0), 1))
	prod.WGDone(wg)
	prod.WGWait(wg) // both producers drain past here together
	// Bug: "whoever gets here first closes" is a check-then-act on a plain
	// flag; two producers interleaving between the load and the store both
	// close the merged channel (Go: panic).
	c := prod.Load(closed)
	prod.If(eq(c, 0), func() {
		prod.Store(closed, 1)
		prod.CloseChan(out)
	})
	cons := p.Body(0, 0)
	cons.While(true, func() {
		v, ok := cons.Recv(out)
		cons.If(eq(ok, 0), func() { cons.Return() })
		cons.SetCell(total, func(t *vthread.Thread) int { return t.Cell(total) + t.Reg(v) })
	})
	mn := p.Main()
	mn.WGAdd(wg, 2)
	mn.Spawn(prod, 10)
	mn.Spawn(prod, 20)
	hc := mn.Spawn(cons)
	mn.Join(hc)
	mn.Assert(func(t *vthread.Thread) bool { return t.Cell(total) == 62 },
		"pipeline dropped values: total=%d", total)
	return p.Build()
}

func compiledCancel() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	work := p.Chan("work", 1)
	done := p.Chan("done", 1)
	// The producer's second send blocks until the worker drains the first;
	// if the worker obeys the cancellation first, nobody ever will (Go's
	// classic leaked-producer bug, here surfacing as a modelled deadlock).
	prod := p.Body(0, 0)
	prod.Send(work, 1)
	prod.Send(work, 2)
	wk := p.Body(0, 0)
	wk.While(true, func() {
		idx, _, _ := wk.Select([]vthread.SCase{vthread.RecvC(work), vthread.RecvC(done)}, false)
		wk.If(eq(idx, 1), func() { wk.Return() }) // cancelled
	})
	mn := p.Main()
	hp := mn.Spawn(prod)
	hw := mn.Spawn(wk)
	mn.CloseChan(done)
	mn.Join(hp)
	mn.Join(hw)
	return p.Build()
}

func compiledWgdone() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	wg := p.WaitGroup("wg")
	owner := p.Var("owner", 0)
	// Bug: "whoever sees the flag unset owns the final Done" is a
	// check-then-act; both cleanups interleaving here drive the counter
	// negative (Go: panic).
	cl := p.Body(0, 0)
	c := cl.Load(owner)
	cl.If(eq(c, 0), func() {
		cl.Store(owner, 1)
		cl.WGDone(wg)
	})
	mn := p.Main()
	mn.WGAdd(wg, 1)
	mn.Spawn(cl)
	mn.Spawn(cl)
	mn.WGWait(wg)
	return p.Build()
}

func compiledSelectStarve() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	reqs := p.Chan("reqs", 3)
	quit := p.Chan("quit", 1)
	processed := p.Cell(0) // the server's plain Go local, shared with main
	srv := p.Body(0, 0)
	srv.While(true, func() {
		idx, _, _ := srv.Select([]vthread.SCase{vthread.RecvC(reqs), vthread.RecvC(quit)}, false)
		srv.If(eq(idx, 1), func() { srv.Return() }) // bug: quits even with requests pending
		srv.SetCell(processed, func(t *vthread.Thread) int { return t.Cell(processed) + 1 })
	})
	cli := p.Body(0, 0)
	for i := 0; i < 3; i++ {
		cli.Send(reqs, i) // buffered: never blocks
	}
	cli.Send(quit, 0)
	mn := p.Main()
	hs := mn.Spawn(srv)
	hc := mn.Spawn(cli)
	mn.Join(hc)
	mn.Join(hs)
	mn.Assert(func(t *vthread.Thread) bool { return t.Cell(processed) == 3 },
		"server quit with %d of 3 requests processed", processed)
	return p.Build()
}

func compiledOnceReenter() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	once := p.Once("init")
	ready := p.Var("ready", 0)
	set := p.Body(0, 0)
	set.Store(ready, 1)
	ini := p.Body(0, 0)
	ini.OnceDo(once, func() {
		// Bug: when the setter has not run yet, the init body takes the
		// fallback path — which re-enters the same Once. Go's sync.Once
		// self-deadlocks.
		r := ini.Load(ready)
		ini.If(eq(r, 0), func() {
			ini.OnceDo(once, func() {})
		})
	})
	mn := p.Main()
	h1 := mn.Spawn(set)
	h2 := mn.Spawn(ini)
	mn.Join(h1)
	mn.Join(h2)
	return p.Build()
}
