package bench

// The CHESS benchmarks: test cases for the Cilk-style WorkStealQueue used
// to evaluate preemption bounding in prior work [Musuvathi & Qadeer,
// PLDI'07; CHESS, OSDI'08]. We implement the deque itself — owner
// push/take at the tail, a thief stealing at the head — with two planted
// bugs from the original's history:
//
//   - take reads the head *before* publishing the decremented tail, so its
//     "more than one element left" fast path can trust a stale head;
//   - steal claims the head with a check-then-act (load, verify, store)
//     instead of an atomic compare-and-swap.
//
// Together these let an owner and a thief obtain the same item when their
// windows interleave — which takes two precisely placed context switches,
// the famous "WSQ needs two preemptions" result. The checker asserts
// exactly-once delivery of every pushed item.
//
// The I/S variants wrap the same race in semaphore-gated hand-off traffic.
// Every blocking operation is a free (non-preemptive) branch point for
// preemption bounding but costs a delay under delay bounding, so the
// zero-preemption schedule space alone exceeds the 10,000-schedule limit
// and IPB misses the bugs that IDB still finds — the Table 3 signature of
// chess.IWSQ/IWSQWS/SWSQ versus chess.WSQ.
//
// Registered in compiled form (New, flat engine): the deque's push, take
// and steal are inlined as instruction sequences with registers standing
// in for Go locals. head/tail are SC atomics (always visible); the item
// buffer is a shared array.

import "sctbench/internal/vthread"

// compiledWSQ runs an owner (push n, then drain n takes, then a tail of
// bookkeeping traffic) and a thief (sts steal attempts) over the deque and
// checks exactly-once delivery.
//
// pingPong > 0 (the I/S variants) additionally spawns two gate threads,
// created *before* the owner and thief, that hand a token back and forth
// pingPong times. While the owner and thief are parked, every gate block
// point offers three enabled threads — a free, zero-preemption branch — so
// the zero-preemption schedule space is exponential in pingPong and
// iterative preemption bounding exhausts its 10,000-schedule budget
// without ever testing a preemption. The duplicate-delivery race itself
// needs only one delay (park the owner between its tail read and tail
// publish; the thief's steals run under the deterministic scheduler), so
// iterative delay bounding still finds it — the Table 3 signature of
// chess.IWSQ/IWSQWS/SWSQ. The owner's tail traffic keeps depth-first
// search busy among harmless deep reorderings.
func compiledWSQ(n, sts, pingPong, tail int) *vthread.CompiledProgram {
	p := vthread.NewBuilder()
	head := p.Atomic("wsq.head", 0)
	tailA := p.Atomic("wsq.tail", 0)
	items := p.Array("wsq.items", n+1)
	seen := p.Array("seen", n)
	bookkeeping := p.Var("bookkeeping", 0)

	// record(v): the exactly-once check.
	record := func(c *vthread.Code, v vthread.Reg) {
		cnt := c.Get(seen, v)
		c.Assert(eq(cnt, 0), "item %d obtained twice", v)
		c.SetAt(seen, v, plus(cnt, 1))
	}

	owner := p.Body(0, 0)
	for i := 0; i < n; i++ {
		// push(i)
		tl := owner.LoadA(tailA)
		owner.SetAt(items, tl, i)
		owner.StoreA(tailA, plus(tl, 1))
	}
	for i := 0; i < n; i++ {
		// v, ok := take(); if ok { record(v) }. Planted bug: the head is
		// read first, so the fast path's "no conflict possible" conclusion
		// can rest on a stale value while a thief advances the head
		// underneath it.
		hd := owner.LoadA(head) // BUG: stale by the time it is trusted below
		tl0 := owner.LoadA(tailA)
		tl := owner.Let(plus(tl0, -1))
		v := owner.Let(0)
		ok := owner.Let(0)
		owner.IfElse(ltr(tl, hd), func() {}, func() {
			owner.StoreA(tailA, tl)
			g := owner.Get(items, tl)
			owner.IfElse(gtr(tl, hd), func() {
				// Fast path: trusts the stale head.
				owner.Set(v, g)
				owner.Set(ok, 1)
			}, func() {
				// Last element: arbitrate with thieves through the head.
				cas := owner.CAS(head, hd, plus(hd, 1))
				owner.StoreA(tailA, plus(hd, 1))
				owner.If(ne(cas, 0), func() {
					owner.Set(v, g)
					owner.Set(ok, 1)
				})
			})
		})
		owner.If(ne(ok, 0), func() { record(owner, v) })
	}
	loopN(owner, tail, func() { owner.AddVar(bookkeeping, 1) })

	thief := p.Body(0, 0)
	for s := 0; s < sts; s++ {
		// v, ok := steal(); if ok { record(v) }. Planted bug:
		// check-then-act instead of compare-and-swap — the verify and the
		// store are separate operations.
		hd := thief.LoadA(head)
		tl := thief.LoadA(tailA)
		thief.If(ltr(hd, tl), func() {
			g := thief.Get(items, hd)
			h2 := thief.LoadA(head)
			thief.If(eqr(h2, hd), func() { // BUG: not atomic with the store below
				thief.StoreA(head, plus(hd, 1))
				record(thief, g)
			})
		})
	}

	mn := p.Main()
	var gates []vthread.OReg
	if pingPong > 0 {
		a := p.Sem("gate.a", 0)
		b := p.Sem("gate.b", 0)
		g1 := p.Body(0, 0)
		loopN(g1, pingPong, func() {
			g1.P(a)
			g1.V(b)
		})
		g2 := p.Body(0, 0)
		loopN(g2, pingPong, func() {
			g2.V(a)
			g2.P(b)
		})
		gates = append(gates, mn.Spawn(g1), mn.Spawn(g2))
	}
	ho := mn.Spawn(owner)
	ht := mn.Spawn(thief)
	mn.Join(ho)
	mn.Join(ht)
	joinRegs(mn, gates)
	return p.Build()
}

func init() {
	register(&Benchmark{
		ID: 32, Name: "chess.IWSQ", Suite: "CHESS", Threads: 5,
		BugKind: vthread.FailAssert,
		Desc:    "work-stealing queue amid gate traffic: zero-preemption branching buries IPB",
		New:     func() vthread.Runnable { return compiledWSQ(6, 3, 20, 8) },
	})
	register(&Benchmark{
		ID: 33, Name: "chess.IWSQWS", Suite: "CHESS", Threads: 5,
		BugKind: vthread.FailAssert,
		Desc:    "work-stealing queue with steal-half traffic: more items, same buried race",
		New:     func() vthread.Runnable { return compiledWSQ(8, 4, 24, 8) },
	})
	register(&Benchmark{
		ID: 34, Name: "chess.SWSQ", Suite: "CHESS", Threads: 5,
		BugKind: vthread.FailAssert,
		Desc:    "synchronized work-stealing queue stress: longest gated run of the race",
		New:     func() vthread.Runnable { return compiledWSQ(10, 5, 28, 8) },
	})
	register(&Benchmark{
		ID: 35, Name: "chess.WSQ", Suite: "CHESS", Threads: 3,
		BugKind: vthread.FailAssert,
		Desc:    "the classic WorkStealQueue owner/thief race",
		New:     func() vthread.Runnable { return compiledWSQ(3, 2, 0, 0) },
	})
}
