package bench

// The Concurrency Software (CS) benchmarks [Cordeiro & Fischer, ICSE'11]:
// small multithreaded algorithm test cases used to evaluate ESBMC. The
// originals carry deliberately violated ("_sat"/"_bad") safety properties;
// inputs were unconstrained and the paper picked concrete values, as do
// we. Each analogue preserves the thread count, the synchronisation
// skeleton and the bug's bound characteristics from Table 3.
//
// Every benchmark is registered in compiled (builder-DSL) form so it runs
// on the flat single-goroutine engine. The programs were translated from
// closure originals following the Go evaluation order exactly: expression
// operands (including assertion message arguments) that touch shared state
// became explicit Loads at the point Go would evaluate them, so an
// assertion whose message prints a variable loads it twice. CS.account_bad
// keeps its closure original (refAccount) as the registry's one Ref twin
// (see Benchmark.Ref).

import "sctbench/internal/vthread"

// joinAll joins threads in creation order.
func joinAll(t *vthread.Thread, ts []*vthread.Thread) {
	for _, c := range ts {
		t.Join(c)
	}
}

func init() {
	register(&Benchmark{
		ID: 3, Name: "CS.account_bad", Suite: "CS", Threads: 4,
		BugKind: vthread.FailAssert,
		Desc:    "bank transfer: withdraw ordered before deposit drives the balance negative",
		New:     func() vthread.Runnable { return compiledAccount() },
		Ref:     refAccount,
	})

	register(&Benchmark{
		ID: 4, Name: "CS.arithmetic_prog_bad", Suite: "CS", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "arithmetic progression with a planted off-by-one property: violated on every schedule",
		New:     func() vthread.Runnable { return compiledArithmetic() },
	})

	register(&Benchmark{
		ID: 5, Name: "CS.bluetooth_driver_bad", Suite: "CS", Threads: 2,
		BugKind: vthread.FailAssert,
		Desc:    "driver used after a concurrent stop request tears it down (check-then-act race)",
		New:     func() vthread.Runnable { return compiledBluetooth() },
	})

	register(&Benchmark{
		ID: 6, Name: "CS.carter01_bad", Suite: "CS", Threads: 5,
		BugKind: vthread.FailDeadlock,
		Desc:    "AB/BA lock-order inversion between two of four workers",
		New:     func() vthread.Runnable { return compiledCarter() },
	})

	register(&Benchmark{
		ID: 7, Name: "CS.circular_buffer_bad", Suite: "CS", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "producer/consumer over a ring buffer with an unsynchronised element count",
		New:     func() vthread.Runnable { return compiledCircular() },
	})

	register(&Benchmark{
		ID: 8, Name: "CS.deadlock01_bad", Suite: "CS", Threads: 3,
		BugKind: vthread.FailDeadlock,
		Desc:    "textbook AB/BA deadlock between two workers",
		New:     func() vthread.Runnable { return compiledDeadlock01() },
	})

	for n := 2; n <= 7; n++ {
		registerDinPhil(9+n-2, n)
	}

	register(&Benchmark{
		ID: 15, Name: "CS.fsbench_bad", Suite: "CS", Threads: 28,
		BugKind: vthread.FailAssert,
		Desc:    "file-system flush: 27 workers claim slots in a 26-entry table (manual OOB assertion, §4.2)",
		New:     func() vthread.Runnable { return compiledFsbench() },
	})

	register(&Benchmark{
		ID: 16, Name: "CS.lazy01_bad", Suite: "CS", Threads: 4,
		BugKind: vthread.FailAssert,
		Desc:    "three workers race to set a value; the checked outcome holds only for some orders",
		New:     func() vthread.Runnable { return compiledLazy01() },
	})

	register(&Benchmark{
		ID: 17, Name: "CS.phase01_bad", Suite: "CS", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "two-phase handshake with a planted always-false postcondition",
		New:     func() vthread.Runnable { return compiledPhase01() },
	})

	register(&Benchmark{
		ID: 18, Name: "CS.queue_bad", Suite: "CS", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "SPSC queue with a racy size field: a mid-enqueue dequeue loses an element",
		New:     func() vthread.Runnable { return compiledQueue() },
	})

	registerReorder(19, "CS.reorder_10_bad", 8)  // 11 threads
	registerReorder(20, "CS.reorder_20_bad", 18) // 21 threads
	registerReorder(21, "CS.reorder_3_bad", 1)   // 4 threads
	registerReorder(22, "CS.reorder_4_bad", 2)   // 5 threads
	registerReorder(23, "CS.reorder_5_bad", 3)   // 6 threads

	register(&Benchmark{
		ID: 24, Name: "CS.stack_bad", Suite: "CS", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "two pushers on a stack with a racy top-of-stack index lose an element",
		New:     func() vthread.Runnable { return compiledStack() },
	})

	register(&Benchmark{
		ID: 25, Name: "CS.sync01_bad", Suite: "CS", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "semaphore handshake with a planted always-false postcondition",
		New:     func() vthread.Runnable { return compiledSync01() },
	})

	register(&Benchmark{
		ID: 26, Name: "CS.sync02_bad", Suite: "CS", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "condvar handshake with a planted always-false postcondition",
		New:     func() vthread.Runnable { return compiledSync02() },
	})

	register(&Benchmark{
		ID: 27, Name: "CS.token_ring_bad", Suite: "CS", Threads: 5,
		BugKind: vthread.FailAssert,
		Desc:    "four stations pass a token without synchronisation; only creation order survives",
		New:     func() vthread.Runnable { return compiledTokenRing() },
	})

	registerTwostage(28, "CS.twostage_100_bad", 50) // 101 threads
	registerTwostage(29, "CS.twostage_bad", 1)      // 3 threads

	registerWronglock(30, "CS.wronglock_3_bad", 3) // 5 threads
	registerWronglock(31, "CS.wronglock_bad", 7)   // 9 threads
}

func refAccount() vthread.Program {
	return func(t0 *vthread.Thread) {
		m := t0.NewMutex("account")
		balance := t0.NewVar("balance", 0)
		deposit := func(tw *vthread.Thread) {
			m.Lock(tw)
			balance.Add(tw, 100)
			m.Unlock(tw)
		}
		withdraw := func(tw *vthread.Thread) {
			m.Lock(tw)
			// Bug: no funds check — assumes the deposit already
			// happened (it does under round-robin).
			balance.Add(tw, -50)
			m.Unlock(tw)
		}
		audit := func(tw *vthread.Thread) {
			m.Lock(tw)
			b := balance.Load(tw)
			m.Unlock(tw)
			tw.Assert(b >= 0, "account overdrawn: balance=%d", b)
		}
		ts := []*vthread.Thread{t0.Spawn(deposit), t0.Spawn(withdraw), t0.Spawn(audit)}
		joinAll(t0, ts)
	}
}

func compiledAccount() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	m := p.Mutex("account")
	balance := p.Var("balance", 0)
	dep := p.Body(0, 0)
	dep.Lock(m)
	dep.AddVar(balance, 100)
	dep.Unlock(m)
	wd := p.Body(0, 0)
	wd.Lock(m)
	// Bug: no funds check (see refAccount).
	wd.AddVar(balance, -50)
	wd.Unlock(m)
	au := p.Body(0, 0)
	au.Lock(m)
	b := au.Load(balance)
	au.Unlock(m)
	au.Assert(ge(b, 0), "account overdrawn: balance=%d", b)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(dep), mn.Spawn(wd), mn.Spawn(au)}
	joinRegs(mn, hs)
	return p.Build()
}

func compiledArithmetic() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	m := p.Mutex("sum")
	sum := p.Var("sum", 0)
	adder := func(lo, hi int) *vthread.Code {
		c := p.Body(0, 0)
		for i := lo; i <= hi; i++ {
			c.Lock(m)
			c.AddVar(sum, i)
			c.Unlock(m)
		}
		return c
	}
	a1 := adder(1, 5)
	a2 := adder(6, 10)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(a1), mn.Spawn(a2)}
	joinRegs(mn, hs)
	got := mn.Load(sum)
	// The ESBMC "_bad" property: deliberately wrong expected value, so the
	// assertion fails regardless of schedule.
	mn.Assert(eq(got, 56), "progression sum=%d, claimed 56", got)
	return p.Build()
}

func compiledBluetooth() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	stopped := p.Var("stopped", 0)
	driverUp := p.Var("driverUp", 1)
	// The stopper mirrors the original's IoDecrement path.
	st := p.Body(0, 0)
	st.Store(stopped, 1)
	st.Store(driverUp, 0)
	// Main is the dispatch routine: checks the stop flag, then uses the
	// driver. One preemption between check and use lets the stopper tear
	// the driver down in between.
	mn := p.Main()
	mn.Spawn(st)
	s := mn.Load(stopped)
	mn.If(eq(s, 0), func() {
		d := mn.Load(driverUp)
		mn.Assert(eq(d, 1), "dispatch on stopped driver")
	})
	return p.Build()
}

func compiledCarter() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	a := p.Mutex("A")
	b := p.Mutex("B")
	work := p.Var("work", 0)
	ab := p.Body(0, 0)
	ab.Lock(a)
	ab.Lock(b)
	ab.AddVar(work, 1)
	ab.Unlock(b)
	ab.Unlock(a)
	ba := p.Body(0, 0)
	ba.Lock(b)
	ba.Lock(a)
	ba.AddVar(work, 1)
	ba.Unlock(a)
	ba.Unlock(b)
	help := p.Body(0, 0)
	help.Lock(a)
	help.AddVar(work, 1)
	help.Unlock(a)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(ab), mn.Spawn(ba), mn.Spawn(help), mn.Spawn(help)}
	joinRegs(mn, hs)
	return p.Build()
}

func compiledCircular() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	buf := p.Array("ring", 4)
	count := p.Var("count", 0) // racy: updated by both sides
	prod := p.Body(0, 0)
	for i := 0; i < 2; i++ {
		prod.SetAt(buf, i, 100+i)
		prod.AddVar(count, 1) // load+store: splittable
	}
	cons := p.Body(0, 0)
	for i := 0; i < 2; i++ {
		i := i
		c := cons.Load(count)
		cons.If(gt(c, i), func() {
			v := cons.Get(buf, i)
			cons.Assert(eq(v, 100+i), "ring[%d]=%d, want %d", i, v, 100+i)
		})
		cons.AddVar(count, -1)
	}
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(prod), mn.Spawn(cons)}
	joinRegs(mn, hs)
	c := mn.Load(count)
	mn.Assert(eq(c, 0), "count=%d after balanced produce/consume", c)
	return p.Build()
}

func compiledDeadlock01() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	a := p.Mutex("A")
	b := p.Mutex("B")
	x := p.Var("x", 0)
	w1 := p.Body(0, 0)
	w1.Lock(a)
	w1.AddVar(x, 1)
	w1.Lock(b)
	w1.Unlock(b)
	w1.Unlock(a)
	w2 := p.Body(0, 0)
	w2.Lock(b)
	w2.AddVar(x, 1)
	w2.Lock(a)
	w2.Unlock(a)
	w2.Unlock(b)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(w1), mn.Spawn(w2)}
	joinRegs(mn, hs)
	return p.Build()
}

func compiledFsbench() *vthread.CompiledProgram {
	const workers = 27
	const slots = workers - 1
	p := vthread.NewBuilder()
	m := p.Mutex("alloc")
	next := p.Var("next", 0)
	table := p.Array("table", slots)
	wk := p.Body(0, 0)
	wk.Lock(m)
	slot := wk.Load(next)
	wk.Store(next, plus(slot, 1))
	wk.Unlock(m)
	// The paper added this assertion by hand: the original overflow
	// corrupts memory silently.
	wk.Assert(lt(slot, slots), "slot %d overflows %d-entry table", slot, slots)
	wk.SetAt(table, slot, 1)
	mn := p.Main()
	hs := make([]vthread.OReg, workers)
	for i := 0; i < workers; i++ {
		hs[i] = mn.Spawn(wk)
	}
	joinRegs(mn, hs)
	return p.Build()
}

func compiledLazy01() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	m := p.Mutex("m")
	data := p.Var("data", 0)
	setter := p.Body(1, 0)
	setter.Lock(m)
	setter.Store(data, setter.Arg(0))
	setter.Unlock(m)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(setter, 1), mn.Spawn(setter, 2), mn.Spawn(setter, 3)}
	joinRegs(mn, hs)
	d := mn.Load(data)
	// Round-robin finishes with the third setter last, so the "impossible"
	// value is exactly the one RR produces.
	mn.Assert(ne(d, 3), "data=%d: last writer was the third setter", d)
	return p.Build()
}

func compiledPhase01() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	s := p.Sem("phase", 0)
	a := p.Var("a", 0)
	b := p.Var("b", 0)
	t1 := p.Body(0, 0)
	t1.Store(a, 1)
	t1.V(s)
	t2 := p.Body(0, 0)
	t2.P(s)
	l := t2.Load(a)
	t2.Store(b, plus(l, 1))
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(t1), mn.Spawn(t2)}
	joinRegs(mn, hs)
	// Planted violation: claims the phases overlap, but the semaphore
	// orders them on every schedule. Go evaluates the condition's two
	// loads, then the message argument's two loads: a, b, a, b.
	a1 := mn.Load(a)
	b1 := mn.Load(b)
	a2 := mn.Load(a)
	b2 := mn.Load(b)
	mn.Assert(func(t *vthread.Thread) bool { return t.Reg(a1)+t.Reg(b1) == 4 },
		"a+b=%d, claimed 4", addr(a2, b2))
	return p.Build()
}

func compiledQueue() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	items := p.Array("items", 8)
	size := p.Var("size", 0) // racy
	enq := p.Body(0, 0)
	for _, v := range []int{10, 20} {
		// Bug: the size is published before the element is written, so a
		// concurrent dequeue in between reads an uninitialised cell.
		n := enq.Load(size)
		enq.Store(size, plus(n, 1))
		enq.SetAt(items, n, v)
	}
	deq := p.Body(0, 0)
	n := deq.Load(size)
	v := deq.Let(-1)
	deq.IfElse(eq(n, 0), func() {}, func() {
		g := deq.Get(items, plus(n, -1))
		deq.Store(size, plus(n, -1))
		deq.Set(v, g)
	})
	deq.Assert(func(t *vthread.Thread) bool {
		x := t.Reg(v)
		return x == -1 || x == 10 || x == 20
	}, "dequeued garbage %d", v)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(enq), mn.Spawn(deq)}
	joinRegs(mn, hs)
	sz := mn.Load(size)
	mn.Assert(func(t *vthread.Thread) bool { return t.Reg(sz) == 1 || t.Reg(sz) == 2 },
		"size=%d after 2 enq / 1 deq", sz)
	return p.Build()
}

func compiledStack() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	cells := p.Array("cells", 8)
	top := p.Var("top", 0) // racy
	push := func(c *vthread.Code, v int) {
		n := c.Load(top)
		c.SetAt(cells, n, v)
		c.Store(top, plus(n, 1))
	}
	p1 := p.Body(0, 0)
	push(p1, 1)
	push(p1, 2)
	p2 := p.Body(0, 0)
	push(p2, 3)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(p1), mn.Spawn(p2)}
	joinRegs(mn, hs)
	n := mn.Load(top)
	mn.Assert(eq(n, 3), "lost push: top=%d, want 3", n)
	return p.Build()
}

func compiledSync01() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	s := p.Sem("sync", 0)
	v := p.Var("v", 0)
	t1 := p.Body(0, 0)
	t1.Store(v, 1)
	t1.V(s)
	t2 := p.Body(0, 0)
	t2.P(s)
	t2.AddVar(v, 1)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(t1), mn.Spawn(t2)}
	joinRegs(mn, hs)
	c1 := mn.Load(v)
	c2 := mn.Load(v)
	mn.Assert(eq(c1, 3), "v=%d, claimed 3", c2)
	return p.Build()
}

func compiledSync02() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	m := p.Mutex("m")
	cv := p.Cond("c")
	ready := p.Var("ready", 0)
	v := p.Var("v", 0)
	t1 := p.Body(0, 0)
	t1.Lock(m)
	t1.Store(v, 10)
	t1.Store(ready, 1)
	t1.Signal(cv)
	t1.Unlock(m)
	t2 := p.Body(0, 0)
	t2.Lock(m)
	r := t2.Load(ready)
	t2.While(eq(r, 0), func() {
		t2.Wait(cv, m)
		l := t2.Load(ready)
		t2.Set(r, l)
	})
	t2.AddVar(v, 5)
	t2.Unlock(m)
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(t1), mn.Spawn(t2)}
	joinRegs(mn, hs)
	c1 := mn.Load(v)
	c2 := mn.Load(v)
	mn.Assert(eq(c1, 16), "v=%d, claimed 16", c2)
	return p.Build()
}

func compiledTokenRing() *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	token := p.Var("token", 0) // racy
	st := p.Body(1, 0)
	got := st.Load(token)
	st.Store(token, addr(got, st.Arg(0)))
	mn := p.Main()
	hs := []vthread.OReg{mn.Spawn(st, 1), mn.Spawn(st, 2), mn.Spawn(st, 3), mn.Spawn(st, 4)}
	joinRegs(mn, hs)
	g := mn.Load(token)
	// Correct only when every station sees its predecessor's value: any
	// reordering or overlap loses increments.
	mn.Assert(eq(g, 10), "token=%d, want 10", g)
	return p.Build()
}

// registerDinPhil builds CS.din_philN_sat: N philosophers with the classic
// left-then-right fork order (deadlock-capable) and an ESBMC-style planted
// "sat" assertion that is violated whenever all philosophers finish — so
// the round-robin schedule is already buggy and essentially every schedule
// is (Table 2's "every random schedule was buggy" group).
func registerDinPhil(id, n int) {
	register(&Benchmark{
		ID: id, Name: "CS.din_phil" + itoa(n) + "_sat", Suite: "CS", Threads: n + 1,
		BugKind: vthread.FailAssert,
		Desc:    "dining philosophers: planted 'not all finish' property plus a real deadlock",
		New:     func() vthread.Runnable { return compiledDinPhil(n) },
	})
}

func compiledDinPhil(n int) *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	forks := make([]vthread.MutexH, n)
	for i := range forks {
		forks[i] = p.Mutex("fork" + itoa(i))
	}
	eaten := p.Var("eaten", 0)
	mn := p.Main()
	hs := make([]vthread.OReg, n)
	for i := 0; i < n; i++ {
		left, right := forks[i], forks[(i+1)%n]
		phil := p.Body(0, 0)
		phil.Lock(left)
		phil.Lock(right)
		phil.AddVar(eaten, 1)
		phil.Unlock(right)
		phil.Unlock(left)
		hs[i] = mn.Spawn(phil)
	}
	joinRegs(mn, hs)
	got := mn.Load(eaten)
	mn.Assert(ne(got, n), "all %d philosophers ate (the _sat property claims this is impossible)", got)
	return p.Build()
}

// registerReorder builds the §2 Example 2 adversary with `extra` duplicate
// writers: the bug needs extra+1 delays but always just one preemption.
// With many writers the schedule space explodes and nothing finds the bug
// within the limit, matching rows 19 and 20.
func registerReorder(id int, name string, extra int) {
	register(&Benchmark{
		ID: id, Name: name, Suite: "CS", Threads: extra + 3,
		BugKind: vthread.FailAssert,
		Desc:    "reorder adversary: checker must run between one writer's two stores",
		New:     func() vthread.Runnable { return compiledReorder(extra) },
	})
}

func compiledReorder(extra int) *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	x := p.Var("x", 0)
	y := p.Var("y", 0)
	wr := p.Body(0, 0)
	wr.Store(x, 1)
	wr.Store(y, 1)
	ck := p.Body(0, 0)
	xv := ck.Load(x)
	yv := ck.Load(y)
	ck.Assert(eqr(xv, yv), "x=%d y=%d", xv, yv)
	mn := p.Main()
	hs := make([]vthread.OReg, 0, extra+2)
	for i := 0; i < extra+1; i++ {
		hs = append(hs, mn.Spawn(wr))
	}
	hs = append(hs, mn.Spawn(ck))
	joinRegs(mn, hs)
	return p.Build()
}

// registerTwostage builds CS.twostage{,_100}_bad: `pairs` stage-one threads
// publish data then a flag under separate locks, and `pairs` stage-two
// threads read flag-then-data — the classic two-variable atomicity
// violation, exposed when a reader runs between a writer's two updates.
func registerTwostage(id int, name string, pairs int) {
	register(&Benchmark{
		ID: id, Name: name, Suite: "CS", Threads: 2*pairs + 1,
		BugKind: vthread.FailAssert,
		Desc:    "two-stage pipeline: flag set before data is complete",
		New:     func() vthread.Runnable { return compiledTwostage(pairs) },
	})
}

func compiledTwostage(pairs int) *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	mData := p.Mutex("data")
	mFlag := p.Mutex("flag")
	data := p.Var("data", 0)
	flag := p.Var("flag", 0)
	// The normal writer: data under its lock, then the flag under its.
	wr := p.Body(0, 0)
	wr.Lock(mData)
	wr.Store(data, 42)
	wr.Unlock(mData)
	wr.Lock(mFlag)
	wr.Store(flag, 1)
	wr.Unlock(mFlag)
	// The variant (writer 0) plants the actual bug: it sets the flag under a
	// different lock *before* the data, so a reader can observe flag==1 with
	// stale data in the window between its two sections. With one pair
	// (twostage_bad) a single preemption exposes it; with 50 pairs
	// (twostage_100_bad) the buggy window is buried under 100 threads of
	// schedule noise and nothing finds it within the limit — matching the
	// paper, where the large-thread-count variants' bugs were found by no
	// technique.
	inv := p.Body(0, 0)
	inv.Lock(mFlag)
	inv.Store(flag, 1)
	inv.Unlock(mFlag)
	inv.Lock(mData)
	inv.Store(data, 42)
	inv.Unlock(mData)
	rd := p.Body(0, 0)
	rd.Lock(mFlag)
	f := rd.Load(flag)
	rd.Unlock(mFlag)
	rd.If(ne(f, 0), func() {
		rd.Lock(mData)
		d := rd.Load(data)
		rd.Unlock(mData)
		rd.Assert(eq(d, 42), "flag set but data=%d", d)
	})
	mn := p.Main()
	hs := make([]vthread.OReg, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		if i == 0 {
			hs = append(hs, mn.Spawn(inv))
		} else {
			hs = append(hs, mn.Spawn(wr))
		}
	}
	for i := 0; i < pairs; i++ {
		hs = append(hs, mn.Spawn(rd))
	}
	joinRegs(mn, hs)
	return p.Build()
}

// registerWronglock builds CS.wronglock{_3,}_bad: a writer updates shared
// state under lock A in two steps; readers take lock B (the wrong lock!)
// and assert they never observe the intermediate state. No non-preemptive
// schedule splits the writer's update, so preemption bound 0 (which
// explodes with the thread count) never finds it; one delay or preemption
// of the writer does.
func registerWronglock(id int, name string, readers int) {
	register(&Benchmark{
		ID: id, Name: name, Suite: "CS", Threads: readers + 2,
		BugKind: vthread.FailAssert,
		Desc:    "readers guard with the wrong lock and can observe a half-done update",
		New:     func() vthread.Runnable { return compiledWronglock(readers) },
	})
}

func compiledWronglock(readers int) *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	right := p.Mutex("right")
	wrong := p.Mutex("wrong")
	v := p.Var("v", 0) // racy: the readers' lock does not order it
	wr := p.Body(0, 0)
	wr.Lock(right)
	wr.Store(v, 1) // intermediate
	wr.Store(v, 2) // final
	wr.Unlock(right)
	rd := p.Body(0, 0)
	rd.Lock(wrong)
	got := rd.Load(v)
	rd.Unlock(wrong)
	rd.Assert(ne(got, 1), "observed half-done update")
	mn := p.Main()
	hs := make([]vthread.OReg, 0, readers+1)
	hs = append(hs, mn.Spawn(wr))
	for i := 0; i < readers; i++ {
		hs = append(hs, mn.Spawn(rd))
	}
	joinRegs(mn, hs)
	return p.Build()
}

// itoa is a minimal integer-to-string helper (avoids strconv in hot paths
// and keeps benchmark names allocation-free at init).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
