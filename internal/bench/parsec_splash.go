package bench

// PARSEC 2.0 and SPLASH-2 analogues. The paper used the "test" inputs with
// 2–3 worker threads and reduced parameters (§4.1, §6); we reduce the same
// way. ferret's pipeline and streamcluster's barrier-phase structure are
// preserved at miniature scale; the three SPLASH-2 programs share the real
// suite's bug — a macro set that omits "wait for threads to terminate", so
// the master can read results before the workers finish writing them.
//
// Registered in compiled form (New, flat engine). Long noise loops
// (radbench churn, the streamcluster pre-barrier phases) compile to
// register-counted While loops rather than unrolled sequences —
// visible-op-identical, far fewer instructions.

import "sctbench/internal/vthread"

func init() {
	register(&Benchmark{
		ID: 39, Name: "parsec.ferret", Suite: "PARSEC", Threads: 11,
		BugKind: vthread.FailAssert,
		Desc:    "pipeline: a stage thread must stay unscheduled while all others drain the queue",
		New:     func() vthread.Runnable { return compiledFerret() },
	})
	register(&Benchmark{
		ID: 40, Name: "parsec.streamcluster", Suite: "PARSEC", Threads: 5,
		BugKind: vthread.FailAssert,
		Desc:    "barrier phase: worker reads the median before the master finishes writing it",
		New:     func() vthread.Runnable { return compiledStreamcluster1() },
	})
	register(&Benchmark{
		ID: 41, Name: "parsec.streamcluster2", Suite: "PARSEC", Threads: 7,
		BugKind: vthread.FailAssert,
		Desc:    "three-worker variant: incorrect output when a straggler's contribution is dropped",
		New:     func() vthread.Runnable { return compiledStreamcluster2() },
	})
	register(&Benchmark{
		ID: 42, Name: "parsec.streamcluster3", Suite: "PARSEC", Threads: 5,
		BugKind: vthread.FailAssert,
		Desc:    "out-of-bounds access when the master leaves the barrier after a worker (manual assertion, §4.2)",
		New:     func() vthread.Runnable { return compiledStreamcluster3() },
	})

	registerSplash(49, "splash2.barnes", 60)
	registerSplash(50, "splash2.fft", 12)
	registerSplash(51, "splash2.lu", 10)

	register(&Benchmark{
		ID: 43, Name: "radbench.bug1", Suite: "RADBench", Threads: 6,
		BugKind: vthread.FailCrash,
		Desc:    "SpiderMonkey: hash table destroyed while another thread still dereferences it",
		New:     func() vthread.Runnable { return compiledRadbench1() },
	})
	register(&Benchmark{
		ID: 44, Name: "radbench.bug2", Suite: "RADBench", Threads: 2,
		BugKind: vthread.FailAssert,
		Desc:    "two threads, three ordering constraints: needs exactly three preemptions = three delays",
		New:     func() vthread.Runnable { return compiledRadbench2() },
	})
	register(&Benchmark{
		ID: 45, Name: "radbench.bug3", Suite: "RADBench", Threads: 3,
		BugKind: vthread.FailDeadlock,
		Desc:    "NSPR: notify on the wrong monitor deadlocks the round-robin schedule itself",
		New:     func() vthread.Runnable { return compiledRadbench3() },
	})
	register(&Benchmark{
		ID: 46, Name: "radbench.bug4", Suite: "RADBench", Threads: 4,
		BugKind: vthread.FailCrash,
		Desc:    "lazily initialised lock: double initialisation leads to unlocking an unheld mutex",
		New:     func() vthread.Runnable { return compiledRadbench4() },
	})
	register(&Benchmark{
		ID: 47, Name: "radbench.bug5", Suite: "RADBench", Threads: 7,
		BugKind: vthread.FailAssert,
		Desc:    "idiom bug: remote dependency flip buried under six threads of noise",
		New:     func() vthread.Runnable { return compiledRadbench5() },
	})
	register(&Benchmark{
		ID: 48, Name: "radbench.bug6", Suite: "RADBench", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "condvar wakeup consumes a state change another waiter needed",
		New:     func() vthread.Runnable { return compiledRadbench6() },
	})
}

// compiledFerret models the PARSEC content-similarity pipeline: a load stage
// (spawned first) enqueues the work item; nine downstream stage threads
// process queue traffic and shut the pipeline down when the last of them
// finishes, checking that the load stage produced anything at all. The
// bug: a pipeline drained and shut down with the load stage never
// scheduled reports empty output. One delay achieves exactly that under
// the round-robin scheduler (the delayed thread is revisited only after
// all later threads run to completion); a random scheduler almost surely
// reschedules the load stage long before nine others finish, so Rand
// misses the bug — the Table 3 signature of this benchmark. Preemption
// bounding drowns at bound zero: ten threads' exit orderings alone exceed
// the schedule limit.
func compiledFerret() *vthread.CompiledProgram {
	const consumers = 9
	p := vthread.NewBuilder()
	m := p.Mutex("pipe")
	queued := p.Var("queued", 0)
	processed := p.Var("processed", 0)
	noise := p.Var("noise", 0)
	// The load stage: its entire contribution is its first operation.
	load := p.Body(0, 0)
	load.Lock(m)
	load.AddVar(queued, 1)
	load.Unlock(m)
	cons := p.Body(0, 0)
	loopN(cons, 6, func() {
		cons.Lock(m)
		cons.AddVar(noise, 1)
		cons.Unlock(m)
	})
	cons.Lock(m)
	pr := cons.AddVar(processed, 1)
	cons.If(eq(pr, consumers), func() {
		// Shutdown: the pipeline must have seen the work item.
		q := cons.Load(queued)
		cons.Assert(gt(q, 0), "pipeline shut down before the load stage ran")
	})
	cons.Unlock(m)
	mn := p.Main()
	hs := make([]vthread.OReg, 0, consumers+1)
	hs = append(hs, mn.Spawn(load))
	for i := 0; i < consumers; i++ {
		hs = append(hs, mn.Spawn(cons))
	}
	joinRegs(mn, hs)
	return p.Build()
}

// compiledStreamcluster1: four workers iterate six barrier-separated
// phases; the master is the last-created worker, so under round-robin it
// is the last arriver, passes straight through the barrier and writes the
// phase median before any waiter wakes. The actual PARSEC bug is the
// missing second barrier after the write: waking a waiter before the
// master's store (one preemption = one delay, since the master is still
// enabled) yields a stale read. Only the first phase checks the median, so
// the deep phases are pure schedule noise: their 3! wake orders per phase
// give a zero-preemption space of ~6^6 that buries preemption bounding,
// and a deep tail that keeps depth-first search away from the shallow bug.
func compiledStreamcluster1() *vthread.CompiledProgram {
	const workers = 4
	const phases = 6
	p := vthread.NewBuilder()
	b := p.Barrier("phase", workers)
	median := p.Var("median", -1)
	// The checker workers (i < workers-1): only phase 0 reads the median.
	wk := p.Body(0, 0)
	for phase := 0; phase < phases; phase++ {
		wk.Arrive(b)
		if phase == 0 {
			got := wk.Load(median)
			wk.Assert(eq(got, 0), "read stale median %d before the master wrote it", got)
		}
	}
	// The master (last-created worker) writes after every barrier.
	ms := p.Body(0, 0)
	for phase := 0; phase < phases; phase++ {
		ms.Arrive(b)
		ms.Store(median, phase) // the master's post-barrier write
		// Missing barrier here in the original.
	}
	mn := p.Main()
	hs := make([]vthread.OReg, 0, workers)
	for i := 0; i < workers-1; i++ {
		hs = append(hs, mn.Spawn(wk))
	}
	hs = append(hs, mn.Spawn(ms))
	joinRegs(mn, hs)
	return p.Build()
}

// compiledStreamcluster2: the three-versions variant with the paper's added output
// check. Six workers accumulate the clustering cost with a racy
// read-modify-write in the first phase only; a torn update (one
// preemption/delay inside someone's Add) loses a contribution and the
// final cost check fails. The second phase is pure barrier noise: its 5!
// wake orders push the zero-preemption space past the limit for IPB and
// give DFS a bug-free deep tail.
func compiledStreamcluster2() *vthread.CompiledProgram {
	const workers = 6
	p := vthread.NewBuilder()
	b := p.Barrier("phase", workers)
	cost := p.Var("cost", 0)
	wk := p.Body(0, 0)
	wk.AddVar(cost, 10) // racy accumulate (phase 0)
	wk.Arrive(b)
	wk.Arrive(b) // phase 1: noise
	mn := p.Main()
	hs := make([]vthread.OReg, 0, workers)
	for i := 0; i < workers; i++ {
		hs = append(hs, mn.Spawn(wk))
	}
	joinRegs(mn, hs)
	got := mn.Load(cost)
	// Output check added by the paper (§4.2).
	mn.Assert(eq(got, workers*10), "incorrect output: cost=%d, want %d", got, workers*10)
	return p.Build()
}

// compiledStreamcluster3: the previously unknown out-of-bounds access found by the
// paper's OOB detector, and its IPB-beats-IDB outlier. The master (created
// first) and the checker both arrive at the resize barrier early and
// block; two noise workers arrive after long computations, the last one
// passing straight through. At the wake point the deterministic scheduler
// picks the master (creation order), which resizes the table before the
// checker indexes the new extent — so the zero-delay schedule passes, and
// exposing the bug needs exactly one delay to skip over the master. But
// the wake choice is non-preemptive (the last arriver just left), so
// preemption bounding reaches the bug at bound zero within a handful of
// schedules, while delay bounding must enumerate ~the whole bound-one
// space. The paper's Figure 4 calls this benchmark out as the worst case
// for IDB.
func compiledStreamcluster3() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	b := p.Barrier("resize", 4)
	size := p.Var("size", 2)
	table := p.Array("table", 8)
	traffic := p.Var("traffic", 0)
	ms := p.Body(0, 0)
	ms.Arrive(b)
	ms.Store(size, 4)
	ms.SetAt(table, 3, 1)
	ck := p.Body(0, 0)
	ck.Arrive(b)
	n := ck.Load(size)
	// Manual assertion standing in for the OOB detector (§4.2): indexing
	// element 3 is valid only after the master's resize.
	ck.Assert(ge(n, 4), "index 3 out of bounds: table extent still %d", n)
	ck.Get(table, 3)
	nz := p.Body(0, 0)
	loopN(nz, 300, func() { nz.AddVar(traffic, 1) })
	nz.Arrive(b)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(ms), mn.Spawn(ck), mn.Spawn(nz), mn.Spawn(nz)}
	joinRegs(mn, hs)
	return p.Build()
}

// compiledRadbench1: SpiderMonkey's JSRuntime hash-table teardown race. The user
// thread locks the runtime early in its life; the destroyer tears the
// runtime down at the END of a long shutdown path; four traffic threads
// generate thousands of scheduling points. The crash (locking a destroyed
// mutex) needs just one delay — skip the user's very first operation and
// the deterministic scheduler runs the whole destroyer before coming back
// — but that delay sits at the shallowest point of the execution, which
// depth-first-ordered bound-1 enumeration reaches only after the >10,000
// deeper one-delay schedules. Every technique exhausts its budget first;
// random scheduling would have to starve the user's first step across the
// destroyer's entire shutdown path. This is the paper's "the large number
// of scheduling points pushes the bug out of reach" benchmark.
func compiledRadbench1() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	rt := p.Mutex("runtime")
	traffic := p.Var("traffic", 0)
	churn := func(c *vthread.Code, n int) {
		loopN(c, n, func() { c.AddVar(traffic, 1) })
	}
	// The destroyer: a long shutdown path, then the teardown.
	des := p.Body(0, 0)
	churn(des, 1000)
	des.DestroyMutex(rt)
	noise := p.Body(0, 0)
	churn(noise, 1000)
	mn := p.Main()
	hs := make([]vthread.OReg, 0, 5)
	hs = append(hs, mn.Spawn(des))
	for i := 0; i < 4; i++ {
		hs = append(hs, mn.Spawn(noise))
	}
	// Main is the runtime user. Its lock is its first operation after the
	// spawns, and main remains enabled throughout them, so under any
	// zero-preemption schedule the lock precedes the teardown; the crash
	// needs main's first step delayed past the destroyer's whole shutdown
	// path.
	mn.Lock(rt)
	mn.Unlock(rt)
	churn(mn, 1000)
	joinRegs(mn, hs)
	return p.Build()
}

// compiledRadbench2: the two-thread SpiderMonkey bug that needs three preemptions
// — three separate ordering constraints between the same two threads:
// the watcher must observe the armed flag before main disarms it, main
// must then disarm-and-publish, and the watcher must observe the
// publication with the flag already gone. With two threads, every delay
// is a preemption and vice versa, so IPB and IDB explore identical
// schedules (§6 of the paper notes exactly this). Noise operations pad
// each segment so the bound-3 space is thousands of schedules and
// unbounded DFS drowns in the 2^points interleavings.
func compiledRadbench2() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	armed := p.Var("armed", 0)
	temp := p.Var("temp", 0)
	published := p.Var("published", 0)
	pad := p.Var("pad", 0)
	wt := p.Body(0, 0)
	sawArmed := wt.Load(armed) // constraint 1: inside the armed window
	loopN(wt, 4, func() { wt.AddVar(pad, 1) })
	sawTemp := wt.Load(temp)     // constraint 2: inside the temp window
	sawPub := wt.Load(published) // constraint 3: after the publication
	wt.Assert(func(t *vthread.Thread) bool {
		return !(t.Reg(sawArmed) == 1 && t.Reg(sawTemp) == 1 && t.Reg(sawPub) == 1)
	}, "watcher observed armed, temp and published states out of order")
	mn := p.Main()
	w := mn.Spawn(wt)
	mn.Store(armed, 1) // open window 1
	loopN(mn, 5, func() { mn.AddVar(pad, 1) })
	mn.Store(armed, 0)     // close window 1
	mn.Store(temp, 1)      // open window 2
	mn.Store(published, 1) // window 3 opens inside window 2…
	mn.Store(temp, 0)      // …which closes immediately after
	loopN(mn, 5, func() { mn.AddVar(pad, 1) })
	mn.Join(w)
	return p.Build()
}

// compiledRadbench3: NSPR monitor misuse — a notification is consumed before the
// peer waits and the reply notification is missing entirely, so the
// round-robin schedule (and nearly every other) deadlocks immediately.
func compiledRadbench3() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	m := p.Mutex("mon")
	cv := p.Cond("mon.cv")
	stage := p.Var("stage", 0)
	w := p.Body(0, 0)
	w.Lock(m)
	w.Signal(cv) // lost or stolen: nobody waits yet
	w.Store(stage, 1)
	s := w.Load(stage)
	w.While(ne(s, 2), func() {
		w.Wait(cv, m)
		l := w.Load(stage)
		w.Set(s, l)
	})
	w.Unlock(m)
	hp := p.Body(0, 0)
	hp.Lock(m)
	hp.Unlock(m)
	mn := p.Main()
	hw := mn.Spawn(w)
	hh := mn.Spawn(hp)
	mn.Lock(m)
	s0 := mn.Load(stage)
	mn.While(ne(s0, 1), func() {
		mn.Wait(cv, m)
		l := mn.Load(stage)
		mn.Set(s0, l)
	})
	mn.Store(stage, 2)
	// Missing Signal(cv) — the second lost notification.
	mn.Unlock(m)
	mn.Join(hw)
	mn.Join(hh)
	return p.Build()
}

// compiledRadbench4: NSPR's lazily initialised lock. Both threads run the
// "if (!initialised) { create lock; initialised = 1 }" pattern and then
// lock through the global handle, unlocking through a *fresh* read of the
// handle, as the original code does. A double initialisation replaces the
// handle while a thread is inside its critical section; that thread (or
// its peer) then unlocks a mutex it does not hold — a crash. The
// interleaving needs two precisely placed delays (one in the
// initialisation window, one inside a critical section), both early in
// the execution, and a noise thread widens the bound-2 space past the
// schedule limit: iterative delay bounding exhausts its budget at bound 2
// while random scheduling stumbles into the window — the paper's
// Rand-only benchmark.
func compiledRadbench4() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	inited := p.Var("inited", 0)
	handle := p.Ref("handle")
	noise := p.Var("noise4", 0)
	use := func(me, prefix int) *vthread.Code {
		c := p.Body(0, 0)
		loopN(c, prefix, func() { c.AddVar(noise, 1) })
		i := c.Load(inited)
		c.If(eq(i, 0), func() {
			// Allocation work inside the window.
			loopN(c, 3, func() { c.AddVar(noise, 1) })
			o := c.NewMutex("lazy" + itoa(me))
			c.RefStore(handle, o)
			c.Store(inited, 1)
		})
		m := c.RefLoad(handle)
		c.Lock(m)
		loopN(c, 4, func() { c.AddVar(noise, 1) }) // critical section
		// The original unlocks via the global: a crash if the handle moved
		// underneath.
		m2 := c.RefLoad(handle)
		c.Unlock(m2)
		return c
	}
	// The second user's long prefix makes a double initialisation rare
	// under random scheduling (the first user normally finishes its init
	// long before the second's check) while keeping it reachable with two
	// early delays.
	u1 := use(1, 2)
	u2 := use(2, 12)
	nz := p.Body(0, 0)
	loopN(nz, 200, func() { nz.AddVar(noise, 1) })
	mn := p.Main()
	h1 := mn.Spawn(u1)
	h2 := mn.Spawn(u2)
	h3 := mn.Spawn(nz)
	mn.Join(h1)
	mn.Join(h2)
	mn.Join(h3)
	return p.Build()
}

// compiledRadbench5: the MapleAlg-only bug. The draft-state reader (created
// early) performs its racy check as its very first operation; the writer
// publishes at the end of a long path, behind four noise threads. Exactly
// the same buried-shallow-window structure as radbench1 — systematic
// techniques exhaust their budgets on deeper schedules and random
// scheduling cannot starve the reader long enough — but unlike radbench1
// the hazard is a plain publish/consume dependency on a shared variable,
// so idiom-driven active testing (the Maple algorithm) profiles the
// consume-before-publish order, flips it, holds the reader back, and
// exposes the bug in a handful of runs.
func compiledRadbench5() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	published := p.Var("published", 0)
	noise := p.Var("noise5", 0)
	churn := func(c *vthread.Code, n int) {
		loopN(c, n, func() { c.AddVar(noise, 1) })
	}
	// Writer: publishes at the end of a long path.
	wr := p.Body(0, 0)
	churn(wr, 1000)
	wr.Store(published, 1)
	nz := p.Body(0, 0)
	churn(nz, 1000)
	mn := p.Main()
	hs := make([]vthread.OReg, 0, 6)
	hs = append(hs, mn.Spawn(wr))
	for i := 0; i < 5; i++ {
		hs = append(hs, mn.Spawn(nz))
	}
	// Main consumes the draft state right after the spawns; its load must
	// be dragged past the writer's entire path for the bug to fire, which
	// only the idiom-driven active scheduler does reliably.
	pub := mn.Load(published)
	mn.FailIf(eq(pub, 1), "consumed draft state after publication")
	churn(mn, 1000)
	joinRegs(mn, hs)
	return p.Build()
}

// compiledRadbench6: a condvar wakeup consumes a state change that a second
// waiter needed — one delay moves the signal between the two waiters'
// checks.
func compiledRadbench6() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	m := p.Mutex("m")
	cv := p.Cond("cv")
	avail := p.Var("avail", 0)
	shutdown := p.Var("shutdown", 0)
	pad := p.Var("pad6", 0)
	wt := p.Body(0, 0)
	wt.Lock(m)
	// The && short-circuits: the shutdown flag loads only when avail
	// read zero.
	a := wt.Load(avail)
	wt.If(eq(a, 0), func() {
		s := wt.Load(shutdown)
		wt.If(eq(s, 0), func() {
			wt.Wait(cv, m)
		})
	})
	// Bug: "if" instead of "while" — a barger who consumed the state
	// between the signal and this wakeup leaves nothing.
	got := wt.Load(avail)
	wt.Assert(gt(got, 0), "woke with nothing available")
	wt.Store(avail, plus(got, -1))
	wt.Unlock(m)
	bg := p.Body(0, 0)
	bg.Lock(m)
	ba := bg.Load(avail)
	bg.If(gt(ba, 0), func() { // barging path: consumes without waiting
		bg.AddVar(avail, -1)
	})
	bg.Unlock(m)
	loopN(bg, 10, func() { bg.AddVar(pad, 1) })
	mn := p.Main()
	hw := mn.Spawn(wt)
	hb := mn.Spawn(bg)
	mn.Lock(m)
	mn.Store(avail, 1)
	mn.Signal(cv)
	mn.Unlock(m)
	mn.Lock(m)
	pa := mn.Load(avail)
	mn.If(eq(pa, 0), func() { // producer tops up if the first was taken
		mn.Store(avail, 1)
		mn.Signal(cv)
	})
	mn.Unlock(m)
	loopN(mn, 10, func() { mn.AddVar(pad, 1) })
	// Shutdown protocol: after the barger is done, raise the shutdown flag
	// and broadcast, so a lost-signal schedule manifests as the "woke with
	// nothing available" assertion rather than a hang — mirroring the
	// original test harness, which timed out and flagged the condition.
	mn.Join(hb)
	mn.Lock(m)
	mn.Store(shutdown, 1)
	mn.Broadcast(cv)
	mn.Unlock(m)
	mn.Join(hw)
	return p.Build()
}

// registerSplash builds the three SPLASH-2 entries. All share one bug: the
// provided macro set omits WAIT_FOR_END, so the master asserts the
// workers' completion flags right after the last synchronisation point,
// and a worker preempted between its final sync and its final store fails
// the check. steps scales the pre-bug computation (the paper reduced
// inputs until race detection completed; the step count is what differs
// between barnes, fft and lu).
func registerSplash(id int, name string, steps int) {
	register(&Benchmark{
		ID: id, Name: name, Suite: "SPLASH-2", Threads: 2,
		BugKind: vthread.FailAssert,
		Desc:    "missing WAIT_FOR_END macro: master checks results before the worker's last store",
		New:     func() vthread.Runnable { return compiledSplash(steps) },
	})
}

func compiledSplash(steps int) *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	work := p.Var("work", 0)
	doneFlag := p.Var("done", 0)
	started := p.Sem("started", 0)
	wk := p.Body(0, 0)
	loopN(wk, steps, func() { wk.AddVar(work, 1) })
	wk.V(started)
	// The worker's very last store: everything before it is ordered by the
	// semaphore, this one is not.
	wk.Store(doneFlag, 1)
	mn := p.Main()
	w := mn.Spawn(wk)
	mn.P(started)
	// Missing WAIT_FOR_END: the master should Join(w) here.
	d := mn.Load(doneFlag)
	mn.Assert(eq(d, 1), "master proceeded before worker termination (done=%d)", d)
	mn.Join(w)
	return p.Build()
}
