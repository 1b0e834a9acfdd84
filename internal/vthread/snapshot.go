package vthread

// The prefix-state cache. A depth-first search runs one execution after
// another that differ only below the backtrack point, and a stateless
// substrate re-executes the shared prefix every time. For flat-engine runs
// entered through Executor.RunFrom the World instead saves its state at some
// scheduling decisions of a run (snapshot.save, called from nextStep) and a
// later run whose chooser repeats the earlier choices continues from the
// deepest saved point it shares (snapshot.restore) rather than from the
// initial state.
//
// A snapshot is restored IN PLACE, into the very Thread, interp, progEnv and
// object structs it was taken from: pending operations, mutex owners,
// condvar waiter lists, join targets and object registers all hold pointers
// to those structs, so writing the saved values back into them makes every
// such pointer right again without translating any. That is also the
// validity rule: a snapshot is worth something only while the structs it
// names are the ones the run is handed — which the Executor checks (claim) —
// and only for the chooser and program that produced it (prefixCache.owner,
// .cp). Any other run on the Executor discards the cache.
//
// What is saved: the World's scalars and enabled-set bookkeeping, the trace
// LENGTH (the trace is append-only and the next run rewrites the same
// prefix), the virtual clock, every thread's scheduling state and interpreter
// registers, and the value of every object in progEnv — which lists the
// objects a run creates as it creates them, so a snapshot records the lengths
// of those lists and a restore cuts them back. That is sound by the rule the
// threads rely on: a run resumes from the deepest snapshot at or below shared
// and only deeper ones are dropped, so an object created below a kept
// snapshot's depth is never created again. What is not saved: a select, whose
// cases are fixed when it is created and whose pick is written before every
// commit; and the clock pseudo-thread's id, name and pending fire, set when
// the clock is created.
//
// The snapshot point is the decision itself: after syncEnabled and the
// chooser, before accountStep. The chooser leaves the World as it found it,
// so the state saved is the one the decision was made in, enabled set and
// scheduling-point counters included, and a resumed run re-enters at that
// decision — it does not sync the enabled set again — and consults its
// chooser there. Which decisions are saved is first the chooser's, then the
// spacing rule's (gap): a chooser that calls Context.NoResume at a point
// promises the same choice there in every later run, so no run resumes
// there and nothing is saved (the bounded search marks every point where no
// untried alternative fits the bound).

// snapSlots bounds the live snapshots of one Executor. Slots are recycled
// with their buffers, so the cache's memory is this many times the largest
// state saved, whatever the length of the execution.
const snapSlots = 24

// snapWordsPerStep sets the spacing of snapshots: saving costs time
// proportional to the words copied, re-executing a step costs roughly what
// copying this many words does, so a snapshot is taken no sooner than
// words/snapWordsPerStep steps after the previous one (and never less than
// snapMinGap) — the cost of saving stays a bounded fraction of the steps it
// is spread over, for a 3-thread program and a 100-thread one alike.
const (
	snapWordsPerStep = 16
	snapMinGap       = 2
)

// threadSnap is one thread's share of a snapshot. The enabled-set links are
// saved for every thread, the rest only for program threads that can run
// again (the clock has no interpreter).
type threadSnap struct {
	t     *Thread
	state threadState

	inEnabled, inCond  bool
	condPrev, condNext *Thread

	pending pendingOp
	name    string
	woken   bool
	val     int
	d       int64
	// nframes and nargv are the lengths of the interpreter's two
	// variable-length buffers; locals and objs keep the length init gave them.
	nframes, nargv int
}

// snapshot is the state of one execution at one scheduling point. The
// variable-length parts are flattened into four buffers in one fixed walk
// order (threads in id order, then the declared objects in progEnv order);
// save and restore are the same walk, writing and reading.
type snapshot struct {
	depth int // len(trace) at the point

	last                    ThreadID
	pc, dc                  int
	schedPoints, maxEnabled int
	selPoints, timerPoints  int
	seen, live              int
	condHead                *Thread
	enabled                 []ThreadID

	now      int64
	clockSeq int
	clock    []*vtimer // the clock's table of timers
	// The lengths of progEnv's lists that grow as the run creates objects.
	nchans, nmutexes, ntimers, nctxs int

	threads []threadSnap
	frames  []frame
	ints    []int
	objs    []any
	thr     []*Thread // mutex owners, rwmutex writers, condvar waiters
	errs    []string  // context causes
}

// gap is the number of steps to the next snapshot after this one: its size
// in machine words over snapWordsPerStep, at least snapMinGap.
func (s *snapshot) gap() int {
	const threadWords, frameWords, ifaceWords = 32, 4, 2
	words := len(s.threads)*threadWords + len(s.frames)*frameWords + len(s.ints) +
		(len(s.objs)+len(s.errs))*ifaceWords + len(s.thr) + len(s.enabled) + len(s.clock)
	return max(snapMinGap, words/snapWordsPerStep)
}

// save records the World's state at the decision it is making.
func (s *snapshot) save(w *World, env *progEnv) {
	s.depth = len(w.trace)
	s.last, s.pc, s.dc = w.last, w.pc, w.dc
	s.schedPoints, s.maxEnabled = w.schedPoints, w.maxEnabled
	s.selPoints, s.timerPoints = w.selPoints, w.timerPoints
	s.seen, s.live, s.condHead = w.seen, w.live, w.condHead
	s.enabled = append(s.enabled[:0], w.enabled...)
	s.now, s.clockSeq = w.clk.now, w.clk.seq
	s.clock = append(s.clock[:0], w.clk.timers...)
	s.nchans, s.nmutexes, s.ntimers, s.nctxs = len(env.chans), len(env.mutexes), len(env.timers), len(env.ctxs)

	threads, frames, ints, objs, thr := s.threads[:0], s.frames[:0], s.ints[:0], s.objs[:0], s.thr[:0]
	for _, t := range w.threads {
		threads = append(threads, threadSnap{t: t, state: t.state,
			inEnabled: t.inEnabled, inCond: t.inCond, condPrev: t.condPrev, condNext: t.condNext})
		if t.state == stateExited || t.isClock {
			continue
		}
		ts, fi := &threads[len(threads)-1], t.fi
		ts.pending, ts.name, ts.woken = t.pending, t.name, t.woken
		ts.val, ts.d = fi.val, fi.d
		ts.nframes, ts.nargv = len(fi.frames), len(fi.argv)
		frames = append(frames, fi.frames...)
		ints = append(append(ints, fi.locals...), fi.argv...)
		objs = append(objs, fi.objs...)
	}

	for _, v := range env.vars {
		ints = append(ints, v.val)
	}
	for _, a := range env.atomics {
		ints = append(ints, a.val)
	}
	for _, a := range env.arrays {
		ints = append(ints, a.vals...)
	}
	for _, c := range env.chans {
		ints = append(append(ints, c.head, c.n, boolInt(c.closed)), c.buf...)
	}
	for _, m := range env.mutexes {
		thr = append(thr, m.owner)
		ints = append(ints, boolInt(m.destroyed))
	}
	for _, l := range env.rwmus {
		thr = append(thr, l.writer)
		ints = append(ints, l.readers, l.waitingWriters)
	}
	for _, c := range env.conds {
		ints = append(ints, len(c.waiters))
		thr = append(thr, c.waiters...)
	}
	for _, sem := range env.sems {
		ints = append(ints, sem.count)
	}
	for _, b := range env.barriers {
		ints = append(ints, b.arrived, int(b.gen))
	}
	for _, g := range env.wgs {
		ints = append(ints, g.count)
	}
	for _, o := range env.onces {
		ints = append(ints, boolInt(o.started), boolInt(o.done))
	}
	for _, v := range env.timers {
		ints = append(ints, boolInt(v.armed), int(v.deadline), v.seq)
	}
	errs := s.errs[:0]
	for _, c := range env.ctxs {
		ints = append(ints, boolInt(c.cancelled), len(c.children))
		errs = append(errs, c.err)
	}
	ints = append(ints, env.cells...)
	for _, r := range env.refs {
		objs = append(objs, r.val)
	}
	s.threads, s.frames, s.ints, s.objs, s.thr, s.errs = threads, frames, ints, objs, thr, errs
}

// restore writes the snapshot back into the structs it was taken from, which
// the Executor has taken out of its free list (claim), and makes them the
// thread table of the (reset) World. The members' positions in the enabled set
// are not saved: they are its indices, written back once the table is in place.
func (s *snapshot) restore(w *World, env *progEnv) {
	w.trace = w.trace[:s.depth]
	w.last, w.pc, w.dc = s.last, s.pc, s.dc
	w.schedPoints, w.maxEnabled = s.schedPoints, s.maxEnabled
	w.selPoints, w.timerPoints = s.selPoints, s.timerPoints
	w.seen, w.live, w.condHead = s.seen, s.live, s.condHead
	w.enabled = append(w.enabled[:0], s.enabled...)
	w.clk.now, w.clk.seq = s.now, s.clockSeq
	w.clk.timers = append(w.clk.timers[:0], s.clock...)
	env.chans, env.mutexes = env.chans[:s.nchans], env.mutexes[:s.nmutexes]
	env.timers, env.ctxs = env.timers[:s.ntimers], env.ctxs[:s.nctxs]

	frames, ints, objs, thr := s.frames, s.ints, s.objs, s.thr
	for i := range s.threads {
		ts := &s.threads[i]
		t := ts.t
		w.threads = append(w.threads, t)
		t.state, t.killed = ts.state, false
		t.inEnabled, t.inCond, t.condPrev, t.condNext = ts.inEnabled, ts.inCond, ts.condPrev, ts.condNext
		if t.isClock {
			w.clk.thread = t
		}
		if ts.state == stateExited || t.isClock {
			continue
		}
		fi := t.fi
		t.pending, t.name, t.woken = ts.pending, ts.name, ts.woken
		fi.val, fi.d = ts.val, ts.d
		fi.frames = append(fi.frames[:0], frames[:ts.nframes]...)
		frames = frames[ts.nframes:]
		ints = ints[copy(fi.locals, ints):]
		fi.argv = append(fi.argv[:0], ints[:ts.nargv]...)
		ints = ints[ts.nargv:]
		objs = objs[copy(fi.objs, objs):]
	}
	for i, id := range w.enabled {
		w.threads[id].pos = i
	}

	for _, v := range env.vars {
		v.val, ints = ints[0], ints[1:]
	}
	for _, a := range env.atomics {
		a.val, ints = ints[0], ints[1:]
	}
	for _, a := range env.arrays {
		ints = ints[copy(a.vals, ints):]
	}
	for _, c := range env.chans {
		c.head, c.n, c.closed = ints[0], ints[1], ints[2] != 0
		ints = ints[3:]
		ints = ints[copy(c.buf, ints):]
	}
	for _, m := range env.mutexes {
		m.owner, thr = thr[0], thr[1:]
		m.destroyed, ints = ints[0] != 0, ints[1:]
	}
	for _, l := range env.rwmus {
		l.writer, thr = thr[0], thr[1:]
		l.readers, l.waitingWriters = ints[0], ints[1]
		ints = ints[2:]
	}
	for _, c := range env.conds {
		n := ints[0]
		c.waiters = append(c.waiters[:0], thr[:n]...)
		ints, thr = ints[1:], thr[n:]
	}
	for _, sem := range env.sems {
		sem.count, ints = ints[0], ints[1:]
	}
	for _, b := range env.barriers {
		b.arrived, b.gen = ints[0], uint64(ints[1])
		ints = ints[2:]
	}
	for _, g := range env.wgs {
		g.count, ints = ints[0], ints[1:]
	}
	for _, o := range env.onces {
		o.started, o.done = ints[0] != 0, ints[1] != 0
		ints = ints[2:]
	}
	for _, v := range env.timers {
		v.armed, v.deadline, v.seq = ints[0] != 0, int64(ints[1]), ints[2]
		ints = ints[3:]
	}
	for i, c := range env.ctxs {
		c.cancelled, c.children, c.err = ints[0] != 0, c.children[:ints[1]], s.errs[i]
		ints = ints[2:]
	}
	copy(env.cells, ints)
	for i, r := range env.refs {
		r.val = objs[i]
	}
}

// prefixCache is an Executor's snapshots and what they are valid for.
type prefixCache struct {
	// owner and cp are the chooser and program of the runs the snapshots come
	// from; env is the object environment those runs share. owner is nil
	// while there is nothing to trust: before the first RunFrom, after any
	// other run, and during a run (so that one that panics leaves nothing).
	owner Chooser
	cp    *CompiledProgram
	env   *progEnv

	// snaps are the live snapshots, ascending in depth; free the slots not in
	// use. Together they never exceed snapSlots.
	snaps []*snapshot
	free  []*snapshot
	// next is the trace length at which the running execution saves again.
	next int
	// tail is the number of program threads the owner's last run had: they
	// are the last tail entries of Executor.flatFree, in id order.
	tail int
}

// drop forgets every snapshot.
func (c *prefixCache) drop() {
	c.owner, c.cp, c.env = nil, nil, nil
	c.free = append(c.free, c.snaps...)
	c.snaps = c.snaps[:0]
}

// resumeAt returns the deepest snapshot at depth <= shared, dropping the
// deeper ones (they describe a branch the search has left), or nil.
func (c *prefixCache) resumeAt(shared int) *snapshot {
	n := len(c.snaps)
	for n > 0 && c.snaps[n-1].depth > shared {
		n--
	}
	c.free = append(c.free, c.snaps[n:]...)
	c.snaps = c.snaps[:n]
	if n == 0 {
		return nil
	}
	return c.snaps[n-1]
}

// take saves the World's state as the deepest snapshot and schedules the
// next one. With every slot in use it first gives up the snapshot whose loss
// matters least: the one that leaves the smallest gap between its neighbours
// relative to its distance from the tip. Backtracking mostly returns to
// points near the tip, so the survivors stay dense there and thin out toward
// the root — a function of the depths alone.
func (c *prefixCache) take(w *World) {
	var s *snapshot
	switch {
	case len(c.free) > 0:
		s = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	case len(c.snaps) < snapSlots:
		s = &snapshot{}
	default:
		tip := len(w.trace)
		best, bestGap, bestDist := 0, 0, 0
		for i := 0; i < len(c.snaps)-1; i++ {
			below := 0
			if i > 0 {
				below = c.snaps[i-1].depth
			}
			gap, dist := c.snaps[i+1].depth-below, tip-c.snaps[i].depth
			// gap/dist < bestGap/bestDist, in integers.
			if i == 0 || gap*bestDist < bestGap*dist {
				best, bestGap, bestDist = i, gap, dist
			}
		}
		s = c.snaps[best]
		c.snaps = append(c.snaps[:best], c.snaps[best+1:]...)
	}
	s.save(w, c.env)
	c.snaps = append(c.snaps, s)
	c.next = s.depth + s.gap()
	w.stats.Snapshots++
}

// begin starts saving the states of an execution that runs from the initial
// state, on the object environment env.
func (c *prefixCache) begin(env *progEnv) {
	c.env, c.next = env, snapMinGap
}

// resume continues the World's (reset) execution from s: the steps below
// s.depth are accounted as performed — the trace, and so every count derived
// from it, is that of a run from the initial state. Its clock fires and case
// decisions hold trace entries but were no flat steps.
func (c *prefixCache) resume(w *World, s *snapshot) {
	s.restore(w, c.env)
	w.resumed = true
	c.next = s.depth + s.gap()
	w.stats.RunsResumed++
	w.stats.StepsSkipped += int64(s.depth)
	w.stats.FlatSteps += int64(s.depth - s.selPoints - s.timerPoints)
	if w.restoreCheck != nil {
		w.restoreCheck(w)
	}
}
