package vthread

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"sctbench/internal/sched"
)

// The prefix-state cache is only ever a cache: an execution continued from a
// saved state must be the execution a run from the initial state produces.
// These tests hold Executor.RunFrom against RunWith run by run, under a
// depth-first walk of the schedule tree (the use the cache is for), and show
// that the comparison notices what a snapshot would get wrong.

// walker is a minimal depth-first search over a program's schedules — the
// shape of explore.engine: a stack of scheduling points, each the canonical
// order of its choices and the one being taken. abortAt, when set, makes the
// walk cut executions short at some fresh points, as the pruning engines do.
// jump, when set, makes backtrack return to a random depth now and then, so
// that the walk meets every depth early on instead of spending its executions
// on the deepest few — still a chooser that repeats its choices below the
// depth backtrack returns. Each fresh node records the footprint of every
// enabled thread: the pruning engines read them, and a restored object a run
// does not otherwise look at shows there (a context's children, the timer
// due next).
type walker struct {
	stack   []walkNode
	calls   int // Choose calls that made a choice (one per trace entry)
	abortAt func(step int) bool
	jump    *rand.Rand
	// marks, when set, makes the walk call Context.NoResume at every point
	// whose node has no untried choice left; marked counts the calls.
	marks  bool
	marked int
}

type walkNode struct {
	order []ThreadID
	idx   int
	foot  string
}

func (k *walker) Choose(ctx Context) ThreadID {
	if ctx.Step < len(k.stack) {
		k.calls++
		n := &k.stack[ctx.Step]
		k.mark(ctx, n)
		return n.order[n.idx]
	}
	if k.abortAt != nil && k.abortAt(ctx.Step) {
		ctx.Abort()
		return NoThread
	}
	k.calls++
	order := sched.CanonicalOrder(ctx.Enabled, ctx.Last, ctx.NumThreads)
	var foot strings.Builder
	for _, id := range ctx.Enabled {
		fmt.Fprintf(&foot, "T%d %v; ", id, ctx.PendingOf(id))
	}
	k.stack = append(k.stack, walkNode{order: order, foot: foot.String()})
	k.mark(ctx, &k.stack[len(k.stack)-1])
	return order[0]
}

// mark tells the World that no later run resumes at n's point, when the walk
// marks and n has no untried choice: backtrack never returns to it.
func (k *walker) mark(ctx Context, n *walkNode) {
	if k.marks && n.idx+1 == len(n.order) {
		ctx.NoResume()
		k.marked++
	}
}

// backtrack advances the deepest node that has an untried choice — or, one
// time in three of a jumpy walk, a random one — drops the nodes below it and
// returns its depth: the number of leading steps the next execution shares
// with the last. -1 when the tree is exhausted.
func (k *walker) backtrack() int {
	var open []int
	for i, n := range k.stack {
		if n.idx+1 < len(n.order) {
			open = append(open, i)
		}
	}
	if len(open) == 0 {
		return -1
	}
	d := open[len(open)-1]
	if k.jump != nil && k.jump.IntN(3) == 0 {
		d = open[k.jump.IntN(len(open))]
	}
	k.stack = k.stack[:d+1]
	k.stack[d].idx++
	return d
}

// describe renders everything an Outcome says, for the report of a
// difference (outcomesEqual and failuresEqual find it).
func describe(o *Outcome) string {
	f := "clean"
	if o.Failure != nil {
		f = fmt.Sprintf("%v/T%d/%s", o.Failure.Kind, o.Failure.Thread, o.Failure.Clone().Message)
	}
	return fmt.Sprintf("trace %v pc %d dc %d sched %d sel %d timer %d maxen %d threads %d limit %v aborted %v failure %s",
		o.Trace, o.PC, o.DC, o.SchedPoints, o.SelectPoints, o.TimerPoints, o.MaxEnabled, o.Threads,
		o.StepLimitHit, o.Aborted, f)
}

// walkPair walks prog depth-first twice in lockstep for at most limit
// executions: on one Executor through RunFrom with the shared depth, on
// another from the initial state. It returns the first difference — of
// Outcome, FlatSteps or footprints; "" for none — and the cached Executor's
// counters. setup, when non-nil, prepares
// the cached Executor and both walkers (test hooks, an abort rule).
func walkPair(prog Runnable, opts Options, limit int, setup func(cached *Executor, a, b *walker)) (diff string, st StepStats) {
	cached, scratch := NewExecutor(opts), NewExecutor(opts)
	defer cached.Close()
	defer scratch.Close()
	a, b := &walker{}, &walker{}
	if setup != nil {
		setup(cached, a, b)
	}
	steps := 0
	for shared, n := 0, 0; shared >= 0 && n < limit; n++ {
		got, want := cached.RunFrom(a, prog, shared), scratch.RunWith(b, nil, prog)
		steps += len(want.Trace)
		if !outcomesEqual(got, want) || !failuresEqual(got.Failure, want.Failure) {
			return fmt.Sprintf("execution %d (shared %d):\n  resumed: %s\n  scratch: %s",
				n, shared, describe(got), describe(want)), cached.StepStats()
		}
		if cached.StepStats().FlatSteps != scratch.StepStats().FlatSteps {
			return fmt.Sprintf("execution %d: FlatSteps %d resumed, %d from scratch", n,
				cached.StepStats().FlatSteps, scratch.StepStats().FlatSteps), cached.StepStats()
		}
		for i := shared; i < len(a.stack); i++ {
			if a.stack[i].foot != b.stack[i].foot {
				return fmt.Sprintf("execution %d (shared %d), step %d: footprints\n  resumed: %s\n  scratch: %s",
					n, shared, i, a.stack[i].foot, b.stack[i].foot), cached.StepStats()
			}
		}
		shared = a.backtrack()
		if s := b.backtrack(); s != shared {
			return fmt.Sprintf("execution %d: the walks backtracked to depths %d and %d", n, shared, s), cached.StepStats()
		}
	}
	st = cached.StepStats()
	if int64(steps) != st.StepsSkipped+int64(a.calls) {
		return fmt.Sprintf("%d steps in the traces, but %d skipped + %d performed", steps, st.StepsSkipped, a.calls), st
	}
	return "", st
}

// jumpy makes both walks of a walkPair return to random depths (the same
// ones).
func jumpy(_ *Executor, a, b *walker) {
	a.jump, b.jump = rand.New(rand.NewPCG(1, 2)), rand.New(rand.NewPCG(1, 2))
}

// snapshotEveryStep makes every scheduling point of ex's RunFrom runs a
// snapshot point, through the enabled-set hook (it runs right before the
// point's decision whether to save): the spacing rule puts snapshots on a
// lattice of depths, and a test of what a snapshot holds wants every state.
func snapshotEveryStep(ex *Executor) {
	check := ex.w.enabledCheck
	ex.w.enabledCheck = func(w *World) {
		if check != nil {
			check(w)
		}
		if w.cache != nil {
			w.cache.next = len(w.trace)
		}
	}
}

// snapProgram exercises every kind of state a snapshot holds that the
// mutation tests below corrupt: spawn arguments (interp.argv), a condvar with
// waiters and woken threads, an RWMutex with a waiting writer, thread handles
// in object registers, cells, a channel, a barrier, a Once, a WaitGroup.
func snapProgram() *CompiledProgram {
	p := NewBuilder()
	m := p.Mutex("m")
	c := p.Cond("c")
	rw := p.RWMutex("rw")
	v := p.Var("v", 0)
	ready := p.Cell(0)
	ch := p.Chan("ch", 2)
	bar := p.Barrier("bar", 2)
	once := p.Once("once")
	g := p.WaitGroup("g")

	waiter := p.Body(1, 0)
	waiter.Lock(m)
	waiter.While(func(t *Thread) bool { return t.Cell(ready) == 0 }, func() {
		waiter.Wait(c, m)
	})
	waiter.Unlock(m)
	waiter.Assert(func(t *Thread) bool { return t.Reg(0) == 1 || t.Reg(0) == 2 }, "waiter %d", waiter.Arg(0))
	waiter.Send(ch, waiter.Arg(0))
	waiter.WGDone(g)

	writer := p.Body(0, 0)
	writer.WLock(rw)
	writer.Store(v, 7)
	writer.WUnlock(rw)
	writer.Arrive(bar)

	reader := p.Body(1, 0)
	reader.RLock(rw)
	x := reader.Load(v)
	reader.RUnlock(rw)
	reader.OnceDo(once, func() { reader.Store(v, reader.Arg(0)) })
	reader.Assert(func(t *Thread) bool { return t.Reg(x) == 0 || t.Reg(x) == 7 }, "read %d", x)
	reader.Arrive(bar)

	mn := p.Main()
	mn.WGAdd(g, 2)
	hs := []OReg{mn.Spawn(waiter, 1), mn.Spawn(waiter, 2), mn.Spawn(writer), mn.Spawn(reader, 3)}
	mn.Lock(m)
	mn.SetCell(ready, 1)
	mn.Broadcast(c)
	mn.Unlock(m)
	mn.WGWait(g)
	mn.Recv(ch)
	mn.Recv(ch)
	for _, h := range hs {
		mn.Join(h)
	}
	return p.Build()
}

// timedProgram exercises the state a run creates, which snapProgram has none
// of: a timer, a ticker and a sleep (the clock's table, now and arm order), a
// WithTimeout child of a WithCancel parent (causes, children, a deadline
// entry), a dynamic mutex, and two-way selects whose case decisions are trace
// entries but no steps.
func timedProgram() *CompiledProgram {
	p := NewBuilder()
	v := p.Var("v", 0)
	res := p.Chan("res", 1)

	worker := p.Body(0, 2)
	parent, mu := worker.OArg(0), worker.OArg(1)
	worker.Lock(mu)
	worker.AddVar(v, 1)
	worker.Unlock(mu)
	child := worker.WithTimeout("child", parent, 3)
	worker.Select2(RecvC(child), SendC(res, 1))

	mn := p.Main()
	parent = mn.WithCancel("parent", NoCtx)
	mu = mn.NewMutex("dyn")
	tk := mn.NewTicker("tk", 2)
	h := mn.Spawn(worker, parent, mu)
	tm := mn.NewTimer("tm", 1)
	mn.Lock(mu)
	mn.Recv(tm)
	mn.Unlock(mu)
	mn.Sleep("nap", 1)
	mn.Select2(RecvC(tk), RecvC(res))
	mn.CtxCancel(parent)
	mn.TickerStop(tk)
	mn.Join(h)
	return p.Build()
}

func TestPrefixCacheMatchesScratch(t *testing.T) {
	for name, setup := range map[string]func(*Executor, *walker, *walker){
		"depth-first": nil,
		"jumpy":       jumpy,
		"jumpy, a snapshot every step": func(ex *Executor, a, b *walker) {
			jumpy(ex, a, b)
			snapshotEveryStep(ex)
		},
	} {
		// A jumpy walk of timedProgram's smaller tree ends after some 140
		// executions.
		for _, prog := range []struct {
			name       string
			build      func() *CompiledProgram
			minResumed int64
		}{{"snapProgram", snapProgram, 1500}, {"timedProgram", timedProgram, 100}} {
			diff, st := walkPair(prog.build(), Options{}, 3000, setup)
			if diff != "" {
				t.Fatalf("%s, %s: %s", prog.name, name, diff)
			}
			if st.RunsResumed < prog.minResumed || st.StepsSkipped == 0 || st.Snapshots == 0 {
				t.Errorf("%s, %s: the walk hardly used the cache: %+v", prog.name, name, st)
			}
		}
	}
}

// TestPrefixCacheMatchesScratchGenerated sweeps the genCompiled shapes —
// selects, timers, tickers, contexts and dynamic mutexes among them.
func TestPrefixCacheMatchesScratchGenerated(t *testing.T) {
	resumed := 0
	for shape := uint32(0); shape < 400; shape++ {
		diff, st := walkPair(genCompiled(shape*2654435761), Options{MaxSteps: 2000}, 60, jumpy)
		if diff != "" {
			t.Fatalf("shape %d: %s", shape, diff)
		}
		if st.RunsResumed > 0 {
			resumed++
		}
	}
	if resumed < 380 {
		t.Errorf("only %d of 400 shapes had a run continued from a saved state", resumed)
	}
}

// TestPrefixCacheCutRuns: executions cut short by MaxSteps or by the chooser
// leave a cache the next execution can still be continued from.
func TestPrefixCacheCutRuns(t *testing.T) {
	if diff, st := walkPair(snapProgram(), Options{MaxSteps: 17}, 1500, nil); diff != "" || st.RunsResumed == 0 {
		t.Errorf("MaxSteps-cut runs: %d resumed; %s", st.RunsResumed, diff)
	}
	abort := func(_ *Executor, a, b *walker) {
		a.abortAt = func(step int) bool { return step%5 == 4 && len(a.stack)%3 == 1 }
		b.abortAt = func(step int) bool { return step%5 == 4 && len(b.stack)%3 == 1 }
	}
	if diff, st := walkPair(snapProgram(), Options{}, 1500, abort); diff != "" || st.RunsResumed == 0 {
		t.Errorf("aborted runs: %d resumed; %s", st.RunsResumed, diff)
	}
}

// TestPrefixCacheForeignRuns interleaves three walks — two programs, and two
// walkers on the same program — on one Executor. Each passes the depth it
// shares with its own previous execution, which the Executor must not trust:
// the cache belongs to whoever ran last, and every run of another chooser or
// program, or a plain RunWith, discards it.
func TestPrefixCacheForeignRuns(t *testing.T) {
	ex, scratch := NewExecutor(Options{}), NewExecutor(Options{})
	defer ex.Close()
	defer scratch.Close()
	progs := []*CompiledProgram{snapProgram(), oracleReuseA(), nil, timedProgram()}
	progs[2] = progs[0]
	type walk struct{ a, b *walker }
	walks := []walk{{&walker{}, &walker{}}, {&walker{}, &walker{}}, {&walker{}, &walker{}}, {&walker{}, &walker{}}}
	shared := []int{0, 0, 0, 0}
	for n := 0; n < 600; n++ {
		i := n % len(walks)
		if n%50 == 49 {
			ex.RunWith(RoundRobin(), nil, progs[i])
		}
		got := describe(ex.RunFrom(walks[i].a, progs[i], shared[i]))
		want := describe(scratch.RunWith(walks[i].b, nil, progs[i]))
		if got != want {
			t.Fatalf("execution %d of walk %d (shared %d):\n  got:  %s\n  want: %s", n, i, shared[i], got, want)
		}
		shared[i] = walks[i].a.backtrack()
		walks[i].b.backtrack()
	}
	if st := ex.StepStats(); st.RunsResumed != 0 {
		t.Errorf("%d runs were continued from another walk's state", st.RunsResumed)
	}
	// Left alone, a walk is resumed again at once.
	for _, i := range []int{0, 3} {
		before := ex.StepStats().RunsResumed
		for n := 0; n < 10; n++ {
			ex.RunFrom(walks[i].a, progs[i], shared[i])
			shared[i] = walks[i].a.backtrack()
		}
		if resumed := ex.StepStats().RunsResumed - before; resumed < 8 {
			t.Errorf("undisturbed walk %d resumed %d of its 9 later runs", i, resumed)
		}
	}
}

// TestPrefixCacheMovedThreads: the structs a snapshot names must be the ones
// the run is handed. Reordering the free list between two runs makes them
// not; the Executor notices and runs from scratch, every time — with the
// clock's struct, which is not in the free list, in the thread table too.
func TestPrefixCacheMovedThreads(t *testing.T) {
	for _, prog := range []*CompiledProgram{snapProgram(), timedProgram()} {
		movedThreads(t, prog)
	}
}

func movedThreads(t *testing.T, prog *CompiledProgram) {
	cached, scratch := NewExecutor(Options{}), NewExecutor(Options{})
	defer cached.Close()
	defer scratch.Close()
	cached.w.restoreCheck = func(*World) { t.Error("restored a snapshot whose threads had moved") }
	a, b := &walker{}, &walker{}
	for shared, n := 0, 0; n < 50; n++ {
		got := describe(cached.RunFrom(a, prog, shared))
		if want := describe(scratch.RunWith(b, nil, prog)); got != want {
			t.Fatalf("execution %d: got %s, want %s", n, got, want)
		}
		// Thread 0 changes places with the last: no snapshot finds its structs.
		free := cached.flatFree
		first, last := len(free)-cached.cache.tail, len(free)-1
		free[first], free[last] = free[last], free[first]
		shared = a.backtrack()
		b.backtrack()
	}
	if st := cached.StepStats(); st.RunsResumed != 0 || st.Snapshots == 0 {
		t.Errorf("%d runs resumed, %d snapshots taken: want none of the first, some of the second", st.RunsResumed, st.Snapshots)
	}
}

// TestPrefixCacheCatchesSeededMutations shows the run-by-run comparison (with
// the enabled-set oracle beside it, for the bookkeeping no Outcome shows) is
// sensitive to what a snapshot could get wrong. Each mutation leaves the
// World, right after a restore, the way a snapshot lacking one piece of state
// would have; the unmutated walk is clean. The state a run creates is
// mutated on timedProgram's walk.
func TestPrefixCacheCatchesSeededMutations(t *testing.T) {
	run := func(prog *CompiledProgram, mutate func(w *World)) (diff string) {
		report := ""
		defer func() {
			// A corrupted World may also end in a panic: the walker replaying
			// a choice that is no longer enabled, an index out of range.
			if r := recover(); r != nil {
				diff = fmt.Sprint("panic: ", r)
			}
		}()
		diff, _ = walkPair(prog, Options{}, 3000, func(ex *Executor, a, b *walker) {
			jumpy(ex, a, b)
			InstallEnabledOracle(ex, func(msg string) {
				if report == "" {
					report = msg
				}
			})
			snapshotEveryStep(ex)
			ex.w.restoreCheck = mutate
		})
		if diff == "" {
			diff = report
		}
		return diff
	}
	for _, prog := range []*CompiledProgram{snapProgram(), timedProgram()} {
		if diff := run(prog, func(*World) {}); diff != "" {
			t.Fatalf("the unmutated walk differs: %s", diff)
		}
	}
	env := func(w *World) *progEnv { return w.cache.env }
	mutations := map[string]func(w *World){
		"drop woken": func(w *World) {
			for _, t := range w.threads {
				t.woken = false
			}
		},
		"drop a condvar's waiter list": func(w *World) {
			env(w).conds[0].waiters = env(w).conds[0].waiters[:0]
		},
		// A saved decision has taken in every thread; reset leaves seen 0.
		"stale seen": func(w *World) { w.seen = 0 },
		"stale live": func(w *World) { w.live = len(w.threads) },
		"drop RWMutex.waitingWriters": func(w *World) {
			env(w).rwmus[0].waitingWriters = 0
		},
		// What the buffer would hold had it not been saved: the arguments of
		// the previous run's last spawn.
		"drop interp.argv": func(w *World) {
			for _, t := range w.threads {
				for i := range t.fi.argv {
					t.fi.argv[i] = 3
				}
			}
		},
		"hand back a different Thread struct": func(w *World) {
			moved := *w.threads[1]
			w.threads[1] = &moved
		},
		"keep the previous run's cell": func(w *World) { env(w).cells[0] = 1 },
		// The restored decision's enabled set is synced already: syncing it
		// again takes a just-exited last thread off live a second time, and
		// going through the whole point again counts it twice.
		"sync the enabled set again":   func(w *World) { w.syncEnabled() },
		"re-enter before the decision": func(w *World) { w.resumed = false },
		"keep the previous run's frames": func(w *World) {
			for _, t := range w.threads {
				if t.state != stateExited && len(t.fi.frames) > 1 {
					t.fi.frames = t.fi.frames[:1]
				}
			}
		},
	}
	for name, mutate := range mutations {
		if run(snapProgram(), mutate) == "" {
			t.Errorf("mutation %q: no difference seen", name)
		}
	}
	// What a snapshot that left out the state a run creates would leave.
	created := map[string]func(w *World){
		"disarm the timers": func(w *World) {
			for _, v := range env(w).timers {
				v.armed = false
			}
		},
		"forget the timers' deadlines and arm order": func(w *World) {
			for _, v := range env(w).timers {
				v.deadline, v.seq = 0, 0
			}
		},
		"empty the clock's table": func(w *World) { w.clk.timers = w.clk.timers[:0] },
		"reset the clock's now":   func(w *World) { w.clk.now, w.clk.seq = 0, 0 },
		// A child the previous run attached and the restore did not cut off.
		"keep a context's later children": func(w *World) {
			if ctxs := env(w).ctxs; len(ctxs) > 0 {
				ctxs[0].children = append(ctxs[0].children, newCtx("stale", ctxs[0]))
			}
		},
		// The dynamic mutex (timedProgram declares none) left out of the
		// list, and with it out of the snapshots to come: its owner is then
		// never restored.
		"cut the dynamic mutex off the list": func(w *World) { env(w).mutexes = env(w).mutexes[:0] },
		"reset selPoints and timerPoints":    func(w *World) { w.selPoints, w.timerPoints = 0, 0 },
	}
	for name, mutate := range created {
		if run(timedProgram(), mutate) == "" {
			t.Errorf("mutation %q: no difference seen", name)
		}
	}
}

// TestPrefixCacheSkipsMarkedPoints: a chooser that marks the points it will
// never choose differently at (Context.NoResume) gets no snapshot taken at
// one, and runs that are those of a run from scratch. The seeded mutation
// that saves at marked points anyway is caught.
func TestPrefixCacheSkipsMarkedPoints(t *testing.T) {
	diff, st := walkPair(snapProgram(), Options{}, 2000, func(ex *Executor, a, b *walker) {
		jumpy(ex, a, b)
		a.marks = true
	})
	if diff != "" || st.RunsResumed == 0 {
		t.Fatalf("%+v: %s", st, diff)
	}
	// walk counts the snapshots each run of a depth-first walk took — those
	// deeper than the depth it shares, on nodes it pushed — and how many of
	// them are at a node the run took its last choice at.
	walk := func(ignoreMarks bool) (marked, taken, atMarked int) {
		ex := NewExecutor(Options{})
		defer ex.Close()
		if ignoreMarks {
			ex.w.positionCheck = func(w *World, _ int, _ bool, _ ThreadID, _ int) { w.noResume = false }
		}
		a, prog := &walker{marks: true}, snapProgram()
		for shared, n := 0, 0; shared >= 0 && n < 2000; n++ {
			ex.RunFrom(a, prog, shared)
			for _, s := range ex.cache.snaps {
				if nd := &a.stack[s.depth]; s.depth > shared {
					taken++
					if nd.idx+1 == len(nd.order) {
						atMarked++
					}
				}
			}
			shared = a.backtrack()
		}
		return a.marked, taken, atMarked
	}
	if marked, taken, atMarked := walk(false); marked == 0 || taken == 0 || atMarked != 0 {
		t.Errorf("%d points marked, %d snapshots taken, %d at marked points: want some, some and none",
			marked, taken, atMarked)
	}
	if _, _, atMarked := walk(true); atMarked == 0 {
		t.Error(`mutation "save at marked points": no snapshot found at one`)
	}
}

// TestPrefixCacheSaveRestoreSymmetric: restoring a snapshot and saving again
// yields the same snapshot — the two walks of snapshot.go agree on what there
// is and in which order, for every state the walk of snapProgram meets.
func TestPrefixCacheSaveRestoreSymmetric(t *testing.T) {
	for _, prog := range []*CompiledProgram{snapProgram(), timedProgram()} {
		saveRestoreSymmetric(t, prog)
	}
}

func saveRestoreSymmetric(t *testing.T, prog *CompiledProgram) {
	checked := 0
	diff, _ := walkPair(prog, Options{}, 500, func(ex *Executor, a, b *walker) {
		jumpy(ex, a, b)
		snapshotEveryStep(ex)
		ex.w.restoreCheck = func(w *World) {
			from := w.cache.snaps[len(w.cache.snaps)-1]
			var again snapshot
			again.save(w, w.cache.env)
			if !reflect.DeepEqual(*from, again) {
				t.Errorf("depth %d: saving the restored state gives a different snapshot", from.depth)
			}
			checked++
		}
	})
	if diff != "" || checked == 0 {
		t.Errorf("%d restores checked; %s", checked, diff)
	}
}

// TestChooserMisusePanicsOnResumedRun: the chooser validation is part of the
// step, not of the prefix — a resumed run that picks a thread that is not
// enabled panics like any other.
func TestChooserMisusePanicsOnResumedRun(t *testing.T) {
	ex := NewExecutor(Options{})
	a := &walker{}
	prog := snapProgram()
	shared := 0
	for n := 0; n < 20; n++ {
		ex.RunFrom(a, prog, shared)
		shared = a.backtrack()
	}
	before := ex.StepStats().RunsResumed
	top := &a.stack[len(a.stack)-1]
	top.order[top.idx] = 77
	defer func() {
		if msg := fmt.Sprint(recover()); !IsChooserMisuse(msg) {
			t.Errorf("panic %q, want the chooser-misuse diagnostic", msg)
		}
		if ex.StepStats().RunsResumed != before+1 {
			t.Error("the misusing run was not a resumed one")
		}
	}()
	ex.RunFrom(a, prog, shared)
	t.Error("no panic")
}

// longProgram runs two workers through n locked increments each: executions
// of about 8n steps.
func longProgram(n int) *CompiledProgram {
	p := NewBuilder()
	m := p.Mutex("m")
	v := p.Var("v", 0)
	wk := p.Body(0, 0)
	i := wk.Let(0)
	wk.While(func(t *Thread) bool { return t.Reg(i) < n }, func() {
		wk.Lock(m)
		wk.AddVar(v, 1)
		wk.Unlock(m)
		wk.Set(i, func(t *Thread) int { return t.Reg(i) + 1 })
	})
	mn := p.Main()
	a, b := mn.Spawn(wk), mn.Spawn(wk)
	mn.Join(a)
	mn.Join(b)
	return p.Build()
}

// flipChooser is round-robin except at step at, where — when on — it takes
// the second choice of the canonical order. Two runs that differ in on share
// the steps below at. It allocates nothing.
type flipChooser struct {
	at int
	on bool
}

func (f *flipChooser) Choose(ctx Context) ThreadID {
	start, _ := sched.CanonicalStart(ctx.Enabled, ctx.Last)
	if f.on && ctx.Step == f.at {
		start++
	}
	return ctx.Enabled[start%len(ctx.Enabled)]
}

// TestPrefixCacheBoundedAndAllocationFree: a 12,000-step execution holds no
// more snapshots than there are slots, and on a warm Executor neither a
// resumed execution nor the snapshots it takes allocate.
func TestPrefixCacheBoundedAndAllocationFree(t *testing.T) {
	prog := longProgram(1500)
	ex := NewExecutor(Options{})
	defer ex.Close()
	f := &flipChooser{}
	out := ex.RunFrom(f, prog, 0)
	if len(out.Trace) < 12000 || out.Failure != nil {
		t.Fatalf("%d steps, failure %v", len(out.Trace), out.Failure)
	}
	c := &ex.cache
	if len(c.snaps) != snapSlots || len(c.free) != 0 {
		t.Fatalf("%d live snapshots and %d free slots after a %d-step run, want %d and 0",
			len(c.snaps), len(c.free), len(out.Trace), snapSlots)
	}
	for i := 1; i < len(c.snaps); i++ {
		if c.snaps[i-1].depth >= c.snaps[i].depth {
			t.Fatalf("snapshot depths not ascending at %d", i)
		}
	}
	tip, mid := c.snaps[snapSlots-1].depth, c.snaps[snapSlots/2].depth
	if len(out.Trace)-tip > 64 || len(out.Trace)-mid > len(out.Trace)/4 {
		t.Errorf("snapshots at %d … %d … of %d steps: not dense near the tip", mid, tip, len(out.Trace))
	}

	f.at = len(out.Trace) - 20
	run := func() {
		f.on = !f.on
		ex.RunFrom(f, prog, f.at)
	}
	run()
	run()
	before := ex.StepStats()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("a resumed execution allocates %.1f times", allocs)
	}
	after := ex.StepStats()
	if runs := after.RunsResumed - before.RunsResumed; runs != 51 || after.Snapshots == before.Snapshots {
		t.Errorf("%d of the 51 runs resumed, %d snapshots taken", runs, after.Snapshots-before.Snapshots)
	}
	if skipped := after.StepsSkipped - before.StepsSkipped; skipped < 51*int64(f.at-64) {
		t.Errorf("51 runs sharing %d steps skipped only %d", f.at, skipped)
	}
	if len(c.snaps)+len(c.free) > snapSlots {
		t.Errorf("%d slots exist, more than the bound %d", len(c.snaps)+len(c.free), snapSlots)
	}
}

// TestRunFromUncomparableChooser: the cache tells its owner by comparing
// choosers as interface values, which panics for a func type. Such a chooser
// promises nothing: its runs go from scratch, with the same Outcome.
func TestRunFromUncomparableChooser(t *testing.T) {
	ex, scratch := NewExecutor(Options{}), NewExecutor(Options{})
	defer ex.Close()
	defer scratch.Close()
	prog := snapProgram()
	choose := ChooserFunc(RoundRobin().Choose)
	for n := 0; n < 3; n++ {
		got := describe(ex.RunFrom(choose, prog, 3))
		if want := describe(scratch.RunWith(choose, nil, prog)); got != want {
			t.Fatalf("run %d:\n  got:  %s\n  want: %s", n, got, want)
		}
	}
	if st := ex.StepStats(); st.RunsResumed != 0 || st.Snapshots != 0 {
		t.Errorf("%d runs resumed, %d snapshots taken: want none", st.RunsResumed, st.Snapshots)
	}
}
