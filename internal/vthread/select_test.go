package vthread

import "testing"

// caseForcer is a chooser that schedules round-robin but, at case-decision
// points, picks a scripted sequence of case indices (falling back to the
// lowest ready case when the script runs out or the scripted case is not
// ready).
type caseForcer struct {
	picks []ThreadID
	used  int
	// points records every case-decision Context seen: (SelectOf, len(Enabled)).
	points [][2]int
}

func (c *caseForcer) Choose(ctx Context) ThreadID {
	if ctx.SelectOf != NoThread {
		c.points = append(c.points, [2]int{int(ctx.SelectOf), len(ctx.Enabled)})
		if c.used < len(c.picks) {
			want := c.picks[c.used]
			c.used++
			for _, e := range ctx.Enabled {
				if e == want {
					return e
				}
			}
		}
		return ctx.Enabled[0]
	}
	if ctx.LastEnabled {
		return ctx.Last
	}
	return ctx.Enabled[0]
}

func TestSelectSingleReadyCaseHasNoDecisionPoint(t *testing.T) {
	var got int
	out := runRR(t, func(t0 *Thread) {
		a := t0.NewChan("a", 1)
		b := t0.NewChan("b", 1)
		b.Send(t0, 42)
		idx, v, ok := t0.Select([]SelectCase{RecvCase(a), RecvCase(b)}, false)
		t0.Assert(idx == 1 && ok, "idx=%d ok=%v", idx, ok)
		got = v
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	if got != 42 {
		t.Fatalf("received %d, want 42", got)
	}
	if out.SelectPoints != 0 {
		t.Fatalf("SelectPoints = %d, want 0 (single ready case decides itself)", out.SelectPoints)
	}
}

func TestSelectDefaultFiresWhenNothingReady(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		a := t0.NewChan("a", 1)
		idx, _, ok := t0.Select([]SelectCase{RecvCase(a)}, true)
		t0.Assert(idx == DefaultCase && !ok, "idx=%d ok=%v", idx, ok)
		// With a ready case, default must NOT fire.
		a.Send(t0, 1)
		idx, v, ok := t0.Select([]SelectCase{RecvCase(a)}, true)
		t0.Assert(idx == 0 && ok && v == 1, "idx=%d v=%d ok=%v", idx, v, ok)
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
}

func TestSelectClosedChannelCases(t *testing.T) {
	// A recv case on a closed drained channel is ready and commits ok=false.
	out := runRR(t, func(t0 *Thread) {
		a := t0.NewChan("a", 1)
		b := t0.NewChan("b", 1)
		a.Close(t0)
		idx, _, ok := t0.Select([]SelectCase{RecvCase(a), RecvCase(b)}, false)
		t0.Assert(idx == 0 && !ok, "idx=%d ok=%v", idx, ok)
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}

	// A send case on a closed channel is ready so the crash can manifest.
	out = runRR(t, func(t0 *Thread) {
		a := t0.NewChan("a", 1)
		a.Close(t0)
		t0.Select([]SelectCase{SendCase(a, 7)}, false)
	})
	if out.Failure == nil || out.Failure.Kind != FailCrash {
		t.Fatalf("Failure = %v, want crash (send on closed via select)", out.Failure)
	}
}

func TestSelectBlocksAndDeadlocks(t *testing.T) {
	// select{} without default blocks forever: modelled deadlock, not hang.
	out := runRR(t, func(t0 *Thread) {
		t0.Select(nil, false)
	})
	if out.Failure == nil || out.Failure.Kind != FailDeadlock {
		t.Fatalf("Failure = %v, want deadlock", out.Failure)
	}
	// A select none of whose channels ever becomes ready deadlocks too.
	out = runRR(t, func(t0 *Thread) {
		a := t0.NewChan("a", 1)
		b := t0.NewChan("b", 1)
		b.Send(t0, 1) // fill b so its send case is not ready
		t0.Select([]SelectCase{RecvCase(a), SendCase(b, 2)}, false)
	})
	if out.Failure == nil || out.Failure.Kind != FailDeadlock {
		t.Fatalf("Failure = %v, want deadlock", out.Failure)
	}
}

func TestSelectCasePickIsChooserVisibleAndCounted(t *testing.T) {
	prog := func(result *int) Program {
		return func(t0 *Thread) {
			a := t0.NewChan("a", 1)
			b := t0.NewChan("b", 1)
			a.Send(t0, 10)
			b.Send(t0, 20)
			_, v, ok := t0.Select([]SelectCase{RecvCase(a), RecvCase(b)}, false)
			t0.Assert(ok, "recv failed")
			*result = v
		}
	}
	for pick, want := range map[ThreadID]int{0: 10, 1: 20} {
		var got int
		cf := &caseForcer{picks: []ThreadID{pick}}
		out := NewWorld(Options{Chooser: cf}).Run(prog(&got))
		if out.Buggy() {
			t.Fatalf("pick %d: %v", pick, out.Failure)
		}
		if got != want {
			t.Fatalf("pick %d: received %d, want %d", pick, got, want)
		}
		if out.SelectPoints != 1 {
			t.Fatalf("pick %d: SelectPoints = %d, want 1", pick, out.SelectPoints)
		}
		if len(cf.points) != 1 || cf.points[0][1] != 2 {
			t.Fatalf("pick %d: case contexts = %v, want one with 2 ready cases", pick, cf.points)
		}
		// The case entry occupies the trace position right after the
		// selecting thread's entry.
		found := false
		for i, e := range out.Trace {
			if i > 0 && e == pick && out.Trace[i-1] == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("pick %d: trace %v does not record the case entry", pick, out.Trace)
		}
		// Replaying the recorded trace — case entry included — reproduces
		// the same commit.
		var replayed int
		rep := NewReplay(out.Trace.Clone())
		rout := NewWorld(Options{Chooser: rep}).Run(prog(&replayed))
		if rep.Failed() {
			t.Fatalf("pick %d: replay diverged at step %d", pick, rep.FailStep())
		}
		if replayed != want || rout.SelectPoints != 1 {
			t.Fatalf("pick %d: replay received %d (SelectPoints %d), want %d", pick, replayed, rout.SelectPoints, want)
		}
	}
}

func TestSelectCaseCostsAreZero(t *testing.T) {
	// The case-decision entry must not count as a preemption or a delay:
	// a select resolved either way still yields a PC=0, DC=0 round-robin
	// schedule when no thread switch happens.
	for pick := ThreadID(0); pick <= 1; pick++ {
		cf := &caseForcer{picks: []ThreadID{pick}}
		out := NewWorld(Options{Chooser: cf}).Run(Program(func(t0 *Thread) {
			a := t0.NewChan("a", 1)
			b := t0.NewChan("b", 1)
			a.Send(t0, 1)
			b.Send(t0, 2)
			t0.Select([]SelectCase{RecvCase(a), RecvCase(b)}, false)
		}))
		if out.Buggy() {
			t.Fatalf("pick %d: %v", pick, out.Failure)
		}
		if out.PC != 0 || out.DC != 0 {
			t.Fatalf("pick %d: PC=%d DC=%d, want 0,0", pick, out.PC, out.DC)
		}
	}
}

func TestSelectSendCase(t *testing.T) {
	var drained []int
	out := runRR(t, func(t0 *Thread) {
		c := t0.NewChan("c", 2)
		w := t0.Spawn(func(tw *Thread) {
			for i := 0; i < 2; i++ {
				idx, _, _ := tw.Select([]SelectCase{SendCase(c, 100+i)}, false)
				tw.Assert(idx == 0, "send case not committed")
			}
		})
		t0.Join(w)
		for c.Len() > 0 {
			v, _ := c.Recv(t0)
			drained = append(drained, v)
		}
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	if len(drained) != 2 || drained[0] != 100 || drained[1] != 101 {
		t.Fatalf("drained %v, want [100 101]", drained)
	}
}

func TestSelectFootprintIsAllMemberChannels(t *testing.T) {
	// A parked 3-way select must expose every member channel in its
	// pending footprint — the N-ary generalisation the engines rely on.
	var fp Footprint
	probe := ChooserFunc(func(ctx Context) ThreadID {
		if ctx.SelectOf == NoThread && ctx.NumThreads == 2 {
			info := ctx.PendingOf(1)
			if info.Objects.Len() == 3 {
				fp = info.Objects
			}
		}
		if ctx.LastEnabled {
			return ctx.Last
		}
		return ctx.Enabled[0]
	})
	out := NewWorld(Options{Chooser: probe}).Run(Program(func(t0 *Thread) {
		a := t0.NewChan("a", 1)
		b := t0.NewChan("b", 1)
		c := t0.NewChan("c", 1)
		w := t0.Spawn(func(tw *Thread) {
			tw.Select([]SelectCase{RecvCase(a), RecvCase(b), RecvCase(c)}, false)
		})
		t0.Yield()
		a.Send(t0, 1)
		t0.Join(w)
	}))
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	for i, want := range []string{"chan/a", "chan/b", "chan/c"} {
		if fp.Len() != 3 || fp.Obj(i) != want {
			t.Fatalf("select footprint = %d objects (%v...), want chan/a,b,c", fp.Len(), fp)
		}
	}
}

func TestWaitGroupWaitBlocksUntilZero(t *testing.T) {
	var order []string
	out := runRR(t, func(t0 *Thread) {
		g := t0.NewWaitGroup("g")
		g.Add(t0, 2)
		for i := 0; i < 2; i++ {
			t0.Spawn(func(tw *Thread) {
				order = append(order, "work")
				g.Done(tw)
			})
		}
		g.Wait(t0)
		order = append(order, "after-wait")
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	if len(order) != 3 || order[2] != "after-wait" {
		t.Fatalf("order = %v, want both workers before after-wait", order)
	}
}

func TestWaitGroupNegativeCounterCrashes(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		g := t0.NewWaitGroup("g")
		g.Add(t0, 1)
		g.Done(t0)
		g.Done(t0) // the double-Done bug class
	})
	if out.Failure == nil || out.Failure.Kind != FailCrash {
		t.Fatalf("Failure = %v, want crash (negative WaitGroup counter)", out.Failure)
	}
}

func TestOnceRunsExactlyOnceAndBlocksLatecomers(t *testing.T) {
	runs := 0
	var afterInit []int
	out := runRR(t, func(t0 *Thread) {
		o := t0.NewOnce("o")
		init := func(tw *Thread) {
			runs++
			tw.Yield() // make the once body span a scheduling point
		}
		var ts []*Thread
		for i := 0; i < 3; i++ {
			i := i
			ts = append(ts, t0.Spawn(func(tw *Thread) {
				o.Do(tw, init)
				afterInit = append(afterInit, i)
			}))
		}
		for _, c := range ts {
			t0.Join(c)
		}
	})
	if out.Buggy() {
		t.Fatalf("unexpected failure: %v", out.Failure)
	}
	if runs != 1 {
		t.Fatalf("once body ran %d times, want 1", runs)
	}
	if len(afterInit) != 3 {
		t.Fatalf("only %d threads passed the Once", len(afterInit))
	}
}

func TestOnceReentrantDoDeadlocks(t *testing.T) {
	out := runRR(t, func(t0 *Thread) {
		o := t0.NewOnce("o")
		o.Do(t0, func(tw *Thread) {
			o.Do(tw, func(*Thread) {}) // Go: fatal self-deadlock
		})
	})
	if out.Failure == nil || out.Failure.Kind != FailDeadlock {
		t.Fatalf("Failure = %v, want deadlock (reentrant Once.Do)", out.Failure)
	}
}

func TestFootprintNaryIndependence(t *testing.T) {
	sel := PendingInfo{Objects: NewFootprint("chan/a", "chan/b", "chan/c", "chan/d")}
	onB := PendingInfo{Objects: NewFootprint("chan/b")}
	onE := PendingInfo{Objects: NewFootprint("chan/e")}
	if sel.Independent(&onB) {
		t.Error("a 4-way select must not commute with an op on a member channel")
	}
	if !sel.Independent(&onE) {
		t.Error("a select must commute with an op on a non-member channel")
	}
	if !onE.Independent(&PendingInfo{}) {
		t.Error("footprint-free ops commute with everything non-opaque")
	}
	ro1 := PendingInfo{Objects: NewFootprint("x"), ReadOnly: true}
	ro2 := PendingInfo{Objects: NewFootprint("x"), ReadOnly: true}
	if !ro1.Independent(&ro2) {
		t.Error("two read-only ops on the same object must commute")
	}
	f := NewFootprint("a", "b", "c")
	if f.Len() != 3 || f.Obj(0) != "a" || f.Obj(1) != "b" || f.Obj(2) != "c" {
		t.Errorf("NewFootprint round-trip broken: %v", f)
	}
	if !f.Contains("c") || f.Contains("d") {
		t.Error("Contains broken")
	}
}

func TestSelectRandomSchedulesDeterministicReplay(t *testing.T) {
	// The foundational SCT assumption must hold for select programs: a
	// recorded trace (case entries included) replays to the identical
	// trace and outcome.
	var prog Program = func(t0 *Thread) {
		a := t0.NewChan("a", 2)
		b := t0.NewChan("b", 2)
		done := t0.NewChan("done", 2)
		t0.Spawn(func(tw *Thread) {
			a.Send(tw, 1)
			b.Send(tw, 2)
			done.Send(tw, 0)
		})
		t0.Spawn(func(tw *Thread) {
			sum := 0
			for got := 0; got < 2; got++ {
				_, v, ok := tw.Select([]SelectCase{RecvCase(a), RecvCase(b)}, false)
				if ok {
					sum += v
				}
			}
			tw.Assert(sum == 3, "sum=%d", sum)
			done.Send(tw, 0)
		})
		done.Recv(t0)
		done.Recv(t0)
	}
	for seed := uint64(0); seed < 40; seed++ {
		ref := NewWorld(Options{Chooser: NewRandom(seed)}).Run(prog)
		if ref.Buggy() {
			t.Fatalf("seed %d: %v", seed, ref.Failure)
		}
		rep := NewReplay(ref.Trace)
		out := NewWorld(Options{Chooser: rep}).Run(prog)
		if rep.Failed() {
			t.Fatalf("seed %d: replay diverged at step %d", seed, rep.FailStep())
		}
		if !out.Trace.Equal(ref.Trace) || out.SelectPoints != ref.SelectPoints {
			t.Fatalf("seed %d: replayed trace differs (%v vs %v)", seed, out.Trace, ref.Trace)
		}
	}
}
