package explore

// Source-set style dynamic partial-order reduction (DPOR) for the
// unbounded depth-first search — the pruning stack §7 of the paper names
// as future work. Following the paper's methodology note, POR stays out of
// the bounded IPB/IDB phases (the interaction of POR and schedule
// bounding "is complex and the topic of recent and ongoing work", §5).
// This file holds the one partial-order-reduction walker of the package:
// RunDPOR drives it as described below, and RunSleepSetDFS (sleepset.go)
// drives the same walker in its degenerate form, with every enabled thread
// a backtrack point from the start and no race analysis.
//
// The algorithm is classic dynamic POR [Flanagan & Godefroid, POPL'05]
// combined with sleep sets [Godefroid '96], with the source-set framing of
// Abdulla et al. for the backtrack-point choice: instead of expanding
// every enabled sibling at a scheduling point (DFS), a node starts with a
// single choice and grows a *backtrack set* on demand. After every
// execution the engine analyses the steps that are new — the ones at or
// past the node the last backtrack advanced. For each it extends the
// happens-before relation of the executed trace (vector clocks over the
// vthread.PendingInfo footprints, with spawn and join program-order edges)
// and looks up, in a per-object access log, every earlier step by another
// thread whose operation is dependent and not already ordered before it.
// Each such pair is a reversible race: the racing thread joins the
// backtrack set of the earlier scheduling point (or, when it was not
// enabled there, every enabled thread does — the conservative source-set
// over-approximation). Sleep sets then prune the
// re-explorations that would only reproduce an already-covered
// Mazurkiewicz trace, and a run whose enabled threads are all asleep is
// chooser-aborted on the spot (vthread.Context.Abort), so detected
// redundancies cost their shared prefix only.
//
// The clocks, the access logs and the rest of the happens-before state are
// kept with the stack: the steps below the backtrack point are the same
// nodes taking the same choices, so what the previous execution computed
// for them stands, and backtrack pops exactly what the retired steps
// added (dporEngine.hbValid). One analysis therefore costs O(new steps x
// accesses to the same objects), not O(depth^2).
//
// A fresh node pays for what the last step changed (DESIGN.md §3). Its
// footprints are references: between two scheduling points only the thread
// that stepped and the threads it created change their pending operation,
// so every other thread's footprint is the one its parent already holds,
// and only the changed threads, the volatile kinds vthread names
// (Context.PendingStable) and every case of a case-decision node are
// queried through Context.PendingOf. The sleep set is a slice of (thread,
// footprint reference) pairs, its members marked in the node's per-choice
// flags, so membership, child filtering and retirement hash nothing. A
// retired node's buffers stay in its stack slot for the next node at that
// depth, and the happens-before state grows with the structures it shadows
// — clock rows, step records and access logs with the stack's high-water
// mark, the interning table with the program's object count — so the
// replay-and-extend hot path allocates only while one of those grows.

import (
	"slices"

	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// dporNode is one scheduling point on the DPOR stack. order lists the
// enabled threads (canonical order) and infos their pending-operation
// footprints; idx is the choice the current execution takes; flags holds,
// per choice, the dporDone, dporBacktrack and dporAsleep bits; sleep is the
// inherited sleep set.
//
// Footprints are held by reference. One queried at this node lives in own;
// one carried from an ancestor stays in that ancestor's own, which outlives
// every node referring to it: a slot's own is overwritten only by the next
// node at the same depth. A split donee's copies refer into the donor's
// own, which the donor therefore leaves to the collector (lent) instead of
// reusing.
type dporNode struct {
	order []sched.ThreadID
	infos []*vthread.PendingInfo
	own   []vthread.PendingInfo
	flags []uint8
	sleep []dporSleeper
	idx   int
	// nthreads is the thread count at this scheduling point; a thread id
	// in [nthreads(i), nthreads(i+1)) was created by step i, which is how
	// the race analysis recovers spawn happens-before edges.
	nthreads int
	// selOf marks a case-decision node: the thread whose Select this node
	// picks a case for, or NoThread for an ordinary thread-choice node. At
	// a case node order holds ready *case indices*, so the sleep set —
	// thread ids — must never be matched against (or extended by) order
	// entries, and every case is explored unconditionally: case
	// alternatives are distinct program behaviours of the selecting thread,
	// never Mazurkiewicz-equivalent, so no commutation argument can prune
	// them.
	selOf sched.ThreadID
	lent  bool
}

// Per-choice flags of a dporNode. dporDone: the choice's subtree is fully
// explored (or, in the parallel driver, owned by another unit that will
// fully explore it). dporBacktrack: the node must explore the choice.
// dporAsleep: the choice's thread is in the node's sleep set (thread nodes
// only).
const (
	dporDone uint8 = 1 << iota
	dporBacktrack
	dporAsleep
)

// dporSleeper is one sleep-set member: a thread and its footprint.
type dporSleeper struct {
	t    sched.ThreadID
	info *vthread.PendingInfo
}

// dporAccess is one entry of an object's access log: a step that touched
// the object, the step's thread, and whether it may have modified the
// object (two read-only accesses commute, everything else is a dependence).
type dporAccess struct {
	step, thread int32
	write        bool
}

// dporStep is what the race analysis keeps per analysed step, so that
// backtrack can unwind the happens-before state after the stack nodes
// themselves are retired: the step's thread (the selecting thread at a
// case node), that thread's previous step (-1 for none), and the end of
// the step's interned object ids in dporEngine.stepObjs (they start where
// the previous step's end).
type dporStep struct {
	thread, prev, objEnd int32
}

// dporEngine is the partial-order-reduction driver; like engine it doubles
// as the vthread.Chooser of the executions it spawns.
type dporEngine struct {
	cfg  Config
	exec *vthread.Executor

	// sleepOnly makes the walker sleep-set DFS [Godefroid '96]: the
	// degenerate DPOR in which every enabled thread is a backtrack point of
	// every node, so there is nothing for a race analysis to add and sleep
	// sets alone do the pruning. Set by newSleepSetEngine, never by a caller.
	sleepOnly bool

	stack []dporNode
	// shared is engine.shared: the depth of the node backtrack advanced.
	shared int
	// analyzeFrom is the shallowest stack depth whose taken step has not
	// been race-analyzed yet: 0 for a fresh engine, the advanced node's
	// depth after a backtrack, len(stack) right after an analysis.
	analyzeFrom int
	// borrowed marks the prefix [0, borrowed) as deep copies of a donor's
	// nodes (parallel driver): their retirement is not counted as pruning
	// here, because the donor retires (and counts) the originals.
	borrowed int

	executions int
	pruned     int
	maxThreads int

	// mark is push's working index over thread ids, all zero between calls.
	mark []int32

	// Happens-before state of the race analysis, valid for the stack prefix
	// [0, hbValid). Invariant: steps below hbValid are the same nodes taking
	// the same choices as when their state was computed. backtrack keeps it
	// by truncating to the depth of the node it advances (truncateHB);
	// anything that installs a stack the state was not computed from starts
	// over at 0 — a fresh engine, a split donee and restoreDPOR (each a new
	// engine value, so hbValid is zero by construction), and growth of
	// maxThreads, which widens the clock rows (analyze). All of it is derived
	// from the stack and rebuilt by the first analysis; none of it is ever
	// serialised. A sleepOnly engine never analyses, so hbValid stays 0 and
	// nothing below is allocated.
	//
	// clock(i) is the vector clock of step i (clock(i)[t] = 1 + the latest
	// step of thread t happening-before-or-equal step i, 0 for none), a row
	// of hbThreads entries in the vc slab; steps[i] is the step's unwind
	// record; prevOf[t] is thread t's latest step and spawnOf[t] the step
	// that created thread t (-1 for none / the initial thread), giving every
	// first step its spawn happens-before edge — without it, a child's steps
	// would look concurrent with everything before the spawn and trigger
	// spurious backtrack points. Object keys are interned to dense ids
	// (objIDs); logs[id] lists the accesses to object id in step order, and
	// opaque the steps whose footprint is unknown (vthread.PendingInfo.Opaque)
	// — together the index the race scan reads instead of the whole trace.
	hbValid   int
	hbThreads int
	vc        []int32
	steps     []dporStep
	stepObjs  []int32
	prevOf    []int32
	spawnOf   []int32
	objIDs    map[string]int32
	logs      [][]dporAccess
	opaque    []int32
}

func newDPOREngine(cfg Config) *dporEngine {
	return &dporEngine{cfg: cfg}
}

// newSleepSetEngine builds the walker RunSleepSetDFS drives.
func newSleepSetEngine(cfg Config) *dporEngine {
	e := newDPOREngine(cfg)
	e.sleepOnly = true
	return e
}

// Choose implements vthread.Chooser: replay the stack prefix, extend the
// deepest branch with the first non-sleeping thread, or abort when sleep
// sets prove the whole subtree redundant.
func (e *dporEngine) Choose(ctx vthread.Context) sched.ThreadID {
	if ctx.Step < len(e.stack) {
		nd := &e.stack[ctx.Step]
		return nd.order[nd.idx]
	}
	if idx := e.push(&ctx); idx >= 0 {
		return e.stack[len(e.stack)-1].order[idx]
	}
	return ctx.Enabled[0] // ignored by the abort contract
}

// dporPushCheck is the carried-footprint oracle hook of the package's tests,
// nil otherwise: called with every fresh node push builds, in the slot past
// the top of the stack, before it is pushed — or not (aborted; its infos
// are then empty).
var dporPushCheck func(e *dporEngine, ctx vthread.Context, nd *dporNode, aborted bool)

// push builds the fresh node for ctx in the stack slot past the top and
// returns the index of the choice taken (the first non-sleeping thread), or
// -1 after aborting a run whose enabled threads are all asleep: the subtree
// is Mazurkiewicz-equivalent to explored schedules, so the run is cut short
// instead of executing its tail, and the node is never pushed (nor its
// footprints read).
//
// At a case-decision point every ready case goes straight into the
// backtrack set — case choices are never redundant — and the sleep
// machinery is bypassed entirely: the inherited sleep set (thread ids) is
// carried through for the node's children but never matched against the
// case indices in order. The node's thread count is the enclosing thread
// node's (ctx.NumThreads is the select's case count there), which keeps
// the spawn-watermark arithmetic of the race analysis exact.
func (e *dporEngine) push(ctx *vthread.Context) int {
	n := len(e.stack)
	e.stack = slices.Grow(e.stack, 1)
	nd := &e.stack[:n+1][n]
	var parent *dporNode
	if n > 0 {
		parent = &e.stack[n-1]
	}
	isCase := ctx.SelectOf != vthread.NoThread
	nd.order = sched.AppendCanonicalOrder(nd.order[:0], ctx.Enabled, ctx.Last, ctx.NumThreads)
	nd.infos = nd.infos[:0]
	nd.flags = append(nd.flags[:0], make([]uint8, len(nd.order))...)
	nd.sleep = nd.sleep[:0]
	nd.nthreads, nd.selOf = ctx.NumThreads, ctx.SelectOf
	if parent != nil {
		nd.sleep = dporChildSleep(parent, nd.sleep)
		if isCase {
			nd.nthreads = parent.nthreads
		}
	}
	if len(e.mark) < ctx.NumThreads {
		e.mark = make([]int32, ctx.NumThreads)
	}
	idx := 0
	if isCase {
		for k := range nd.flags {
			nd.flags[k] = dporBacktrack
		}
	} else {
		e.maxThreads = max(e.maxThreads, nd.nthreads)
		idx = e.markAsleep(nd)
		if idx == len(nd.order) {
			ctx.Abort()
			e.pruned += len(nd.order)
			if dporPushCheck != nil {
				dporPushCheck(e, *ctx, nd, true)
			}
			return -1
		}
		if e.sleepOnly { // sleep-set DFS: every choice, up front
			for k := range nd.flags {
				nd.flags[k] |= dporBacktrack
			}
		}
	}
	nd.flags[idx] |= dporBacktrack
	nd.idx = idx
	e.footprints(ctx, nd)
	if dporPushCheck != nil {
		dporPushCheck(e, *ctx, nd, false)
	}
	e.stack = e.stack[:n+1]
	return idx
}

// markAsleep sets the dporAsleep flag of every choice of the thread node nd
// whose thread is in its sleep set, and returns the first choice that is
// not asleep (len(nd.order) when none is).
func (e *dporEngine) markAsleep(nd *dporNode) int {
	if len(nd.sleep) == 0 {
		return 0
	}
	for _, s := range nd.sleep {
		if int(s.t) < len(e.mark) {
			e.mark[s.t] = 1
		}
	}
	first := len(nd.order)
	for k, t := range nd.order {
		if e.mark[t] != 0 {
			nd.flags[k] |= dporAsleep
		} else if first == len(nd.order) {
			first = k
		}
	}
	for _, s := range nd.sleep {
		if int(s.t) < len(e.mark) {
			e.mark[s.t] = 0
		}
	}
	return first
}

// footprints fills nd.infos, nd being the fresh node at the top of the
// stack (not yet pushed). A thread-choice node takes each thread's
// footprint from the nearest thread-choice ancestor (the parent, or the
// thread node above a case-decision parent) unless the thread is the one
// that stepped there, was not enabled there (new threads included), or
// has a volatile footprint; those, and every case of a case-decision node,
// are queried into own, sized first so the references stay valid.
func (e *dporEngine) footprints(ctx *vthread.Context, nd *dporNode) {
	if nd.lent {
		nd.own, nd.lent = nil, false
	}
	nd.own = slices.Grow(nd.own[:0], len(nd.order))
	var src *dporNode
	if nd.selOf == vthread.NoThread {
		for d := len(e.stack) - 1; d >= 0 && src == nil; d-- {
			if e.stack[d].selOf == vthread.NoThread {
				src = &e.stack[d]
			}
		}
	}
	if src == nil {
		for _, t := range nd.order {
			nd.own = append(nd.own, ctx.PendingOf(t))
			nd.infos = append(nd.infos, &nd.own[len(nd.own)-1])
		}
		return
	}
	for k, t := range src.order {
		if int(t) < len(e.mark) {
			e.mark[t] = int32(k + 1)
		}
	}
	stepped := src.order[src.idx]
	for _, t := range nd.order {
		if k := e.mark[t]; k != 0 && t != stepped && ctx.PendingStable(t) {
			nd.infos = append(nd.infos, src.infos[k-1])
			continue
		}
		nd.own = append(nd.own, ctx.PendingOf(t))
		nd.infos = append(nd.infos, &nd.own[len(nd.own)-1])
	}
	for _, t := range src.order {
		if int(t) < len(e.mark) {
			e.mark[t] = 0
		}
	}
}

// dporChildSleep appends to dst the sleep set a child of parent inherits:
// sleeping threads and fully explored siblings whose operations are
// independent of the branch being taken now. A case-decision parent
// contributes only its inherited sleep (already filtered by the full
// select footprint at the enclosing thread node, a superset of the
// committed case's channel): its siblings are case indices, not threads,
// and must never leak into a sleep set.
func dporChildSleep(parent *dporNode, dst []dporSleeper) []dporSleeper {
	takenInfo := parent.infos[parent.idx]
	if parent.selOf != vthread.NoThread {
		for _, s := range parent.sleep {
			if s.info.Independent(takenInfo) {
				dst = append(dst, s)
			}
		}
		return dst
	}
	taken := parent.order[parent.idx]
	for _, s := range parent.sleep {
		if s.t != taken && s.info.Independent(takenInfo) {
			dst = append(dst, s)
		}
	}
	for k, f := range parent.flags {
		if f&dporDone != 0 && parent.infos[k].Independent(takenInfo) {
			dst = append(dst, dporSleeper{parent.order[k], parent.infos[k]})
		}
	}
	return dst
}

// runOnce executes the program once, replaying the stack prefix, then
// race-analyzes the newly executed steps to grow backtrack sets (sleep-set
// DFS starts every backtrack set full, so it has nothing to analyze).
func (e *dporEngine) runOnce() *vthread.Outcome {
	e.executions++
	out := execute(e.cfg, e.exec, e, e.shared)
	e.shared = 0
	if !e.sleepOnly {
		e.analyze()
	}
	e.analyzeFrom = len(e.stack)
	return out
}

// dporCaseInfo is the footprint of a case-decision step in the race
// analysis: none of its own (see analyze).
var dporCaseInfo vthread.PendingInfo

// dporCheck is the differential-oracle hook of the package's tests, nil
// otherwise: called before an analysis, it returns the check to run after
// it (dpor_oracle_test.go).
var dporCheck func(e *dporEngine) (after func())

// analyze performs the DPOR race pass over the steps of the current stack
// that are new: from hbValid on, it extends the happens-before state
// (vector clocks over the executed steps' footprints, the access logs) one
// step at a time, and for every step not race-analysed before (analyzeFrom
// on — the same depth unless the state is being rebuilt) it looks up the
// dependent-and-concurrent earlier steps by other threads. Each such race
// adds a backtrack point at the earlier scheduling point. See the hbValid
// field for why the steps below it need no second look.
func (e *dporEngine) analyze() {
	n := len(e.stack)
	if e.analyzeFrom >= n {
		return
	}
	if dporCheck != nil {
		defer dporCheck(e)()
	}
	nt := e.maxThreads
	if nt != e.hbThreads {
		// Rows widen: start over (a handful of times per search).
		e.truncateHB(0)
		e.hbThreads = nt
		e.prevOf, e.spawnOf = make([]int32, nt), make([]int32, nt)
		for t := range e.prevOf {
			e.prevOf[t], e.spawnOf[t] = -1, -1
		}
	}
	// Grow with the stack, so that both reach their high-water mark in the
	// same few allocations.
	rows := max(n, cap(e.stack))
	if len(e.steps) < n {
		e.steps = append(make([]dporStep, 0, rows), e.steps[:e.hbValid]...)[:rows]
	}
	if len(e.vc) < n*nt {
		e.vc = append(make([]int32, 0, rows*nt), e.vc[:e.hbValid*nt]...)[:rows*nt]
	}
	for i := e.hbValid; i < n; i++ {
		nd := &e.stack[i]
		p := int32(nd.order[nd.idx])
		info := nd.infos[nd.idx]
		isCase := nd.selOf != vthread.NoThread
		if isCase {
			// A case-decision node is the second half of its select step:
			// attribute it to the selecting thread with no footprint of its
			// own. The enclosing thread node already carries the full member-
			// channel footprint (and recorded the writes), so every
			// dependence edge and race involving the select lands there —
			// where other threads were actual alternatives.
			p = int32(nd.selOf)
			info = &dporCaseInfo
		}
		// Threads first seen at the next scheduling point were created by
		// this step: record the spawn edge source. The deepest step has no
		// successor to tell; backtrack truncates to at most n-1, so it is
		// always analysed again once it has one.
		if i+1 < n {
			for t := nd.nthreads; t < e.stack[i+1].nthreads && t < nt; t++ {
				e.spawnOf[t] = int32(i)
			}
		}
		// The step's clock starts from p's pre-state clock: its previous
		// step, or the step that spawned it (spawn happens-before the first
		// step); nil only for the initial thread's first step.
		var pre []int32
		if pp := e.prevOf[p]; pp >= 0 {
			pre = e.clock(int(pp))
		} else if sp := e.spawnOf[p]; sp >= 0 {
			pre = e.clock(int(sp))
		}
		v := e.clock(i)
		if pre != nil {
			copy(v, pre)
		} else {
			clear(v)
		}
		// A join is ordered after every step of the joined thread (its
		// exit is not a scheduling point, so no object edge covers this).
		if info.IsJoin {
			if tgt := int(info.JoinOf); tgt >= 0 && tgt < nt {
				if tp := e.prevOf[tgt]; tp >= 0 {
					joinVC(v, e.clock(int(tp)))
				}
			}
		}
		// Dependence edges from the access logs: the last write of each
		// object and, for a write, the reads since it.
		objStart := len(e.stepObjs)
		for k := 0; k < info.Objects.Len(); k++ {
			id := e.intern(info.Objects.Obj(k))
			e.stepObjs = append(e.stepObjs, id)
			log := e.logs[id]
			for a := len(log) - 1; a >= 0; a-- {
				if log[a].write || !info.ReadOnly {
					joinVC(v, e.clock(int(log[a].step)))
				}
				if log[a].write {
					break
				}
			}
		}
		ids := e.stepObjs[objStart:]

		if i >= e.analyzeFrom && !isCase {
			e.addRaceBacktracks(i, p, info, ids, pre)
		}

		// Record the step in the logs and close its clock.
		for _, id := range ids {
			e.logs[id] = append(e.logs[id], dporAccess{step: int32(i), thread: p, write: !info.ReadOnly})
		}
		if info.Opaque {
			e.opaque = append(e.opaque, int32(i))
		}
		e.steps[i] = dporStep{thread: p, prev: e.prevOf[p], objEnd: int32(len(e.stepObjs))}
		v[p] = int32(i + 1)
		e.prevOf[p] = int32(i)
	}
	e.hbValid = n
}

// clock is the vector-clock row of step i.
func (e *dporEngine) clock(i int) []int32 {
	return e.vc[i*e.hbThreads : (i+1)*e.hbThreads]
}

// intern maps an object key to its dense id, creating the id (and its
// empty access log) on first sight: one map lookup per object of a newly
// analysed step.
func (e *dporEngine) intern(key string) int32 {
	id, ok := e.objIDs[key]
	if !ok {
		if e.objIDs == nil {
			e.objIDs = make(map[string]int32)
		}
		id = int32(len(e.logs))
		e.objIDs[key] = id
		e.logs = append(e.logs, nil)
	}
	return id
}

// truncateHB pops the happens-before state of the steps at depth d and
// deeper, restoring what the analysis of steps [0, d) left: the log entries
// and opaque marks those steps appended, and prevOf/spawnOf as they stood
// before step d.
func (e *dporEngine) truncateHB(d int) {
	if d >= e.hbValid {
		return
	}
	for i := e.hbValid - 1; i >= d; i-- {
		st := e.steps[i]
		for _, id := range e.stepObjs[e.objStart(i):st.objEnd] {
			e.logs[id] = e.logs[id][:len(e.logs[id])-1]
		}
		e.prevOf[st.thread] = st.prev
	}
	e.stepObjs = e.stepObjs[:e.objStart(d)]
	for k := len(e.opaque); k > 0 && int(e.opaque[k-1]) >= d; k-- {
		e.opaque = e.opaque[:k-1]
	}
	for t, sp := range e.spawnOf {
		if int(sp) >= d {
			e.spawnOf[t] = -1
		}
	}
	e.hbValid = d
}

// objStart is where step i's interned object ids start in stepObjs.
func (e *dporEngine) objStart(i int) int32 {
	if i == 0 {
		return 0
	}
	return e.steps[i-1].objEnd
}

// addRaceBacktracks adds a backtrack point at every earlier step by
// another thread whose operation is dependent with step i's (thread p,
// footprint info, interned as ids) and not already ordered before p by the
// happens-before relation of the trace (pre, p's pre-state clock). The
// dependent steps are read off the index: the logged accesses to i's
// objects, minus read/read pairs, plus the opaque steps; only an opaque
// step i, dependent with everything, walks the whole stack. Considering
// every race of the trace — not only the most recent per step — is the
// source-set style formulation; it is what keeps the scan sound without a
// may-be-co-enabled oracle: the classic "last dependent step only" rule
// would let a release operation (never co-enabled with the acquire it
// unblocks, hence never reversible) shadow the reversible acquire-acquire
// race behind it. Backtrack sets are sets, so a step met through two
// shared objects is simply marked twice.
func (e *dporEngine) addRaceBacktracks(i int, p int32, info *vthread.PendingInfo, ids, pre []int32) {
	if info.Opaque {
		for j := i - 1; j >= 0; j-- {
			// A case node has no footprint of its own and no thread
			// alternatives to reverse into; the race against its select, if
			// any, is found at the enclosing thread node right above it.
			if e.stack[j].selOf == vthread.NoThread {
				e.raceBacktrack(j, e.steps[j].thread, p, pre)
			}
		}
		return
	}
	for _, id := range ids {
		for _, a := range e.logs[id] {
			if a.write || !info.ReadOnly {
				e.raceBacktrack(int(a.step), a.thread, p, pre)
			}
		}
	}
	for _, j := range e.opaque {
		e.raceBacktrack(int(j), e.steps[j].thread, p, pre)
	}
}

// raceBacktrack handles one dependent pair: step j by thread q against a
// later step of thread p whose pre-state clock is pre.
func (e *dporEngine) raceBacktrack(j int, q, p int32, pre []int32) {
	if q == p {
		return // program order, never reversible
	}
	if pre != nil && pre[q] >= int32(j+1) {
		return // already ordered before p's step by other dependences
	}
	// Reversible race: thread p must be tried at point j — or, when p was
	// not enabled there, every enabled thread must (the conservative
	// source-set over-approximation).
	ndj := &e.stack[j]
	for k, t := range ndj.order {
		if int32(t) == p {
			ndj.flags[k] |= dporBacktrack
			return
		}
	}
	for k := range ndj.flags {
		ndj.flags[k] |= dporBacktrack
	}
}

// backtrack advances the search to the next required branch — the first
// backtrack-set member at the deepest node that is neither explored nor
// asleep — popping exhausted nodes, and returns false when the reduced
// space is exhausted.
func (e *dporEngine) backtrack() bool {
	for len(e.stack) > 0 {
		d := len(e.stack) - 1
		nd := &e.stack[d]
		nd.flags[nd.idx] |= dporDone
		next := e.firstPending(nd)
		if next >= 0 {
			nd.idx = next
			e.shared = d
			e.analyzeFrom = d
			e.truncateHB(d)
			return true
		}
		// Retire the node; every choice never explored is a subtree DFS
		// would have walked. Borrowed prefix copies are the donor's to
		// count. The node's buffers stay in the slot (see dporNode).
		if d >= e.borrowed {
			for _, f := range nd.flags {
				if f&dporDone == 0 {
					e.pruned++
				}
			}
		}
		e.stack = e.stack[:d]
	}
	return false
}

// firstPending is the first pending choice of nd in canonical order, the
// one backtracking advances to; -1 when there is none.
func (e *dporEngine) firstPending(nd *dporNode) int {
	for k := range nd.order {
		if e.pendingAt(nd, k) {
			return k
		}
	}
	return -1
}

// pendingAt reports whether choice k of nd is pending work — for the
// engine's own backtracking, or to donate: in the backtrack set, not
// explored, not asleep, and not the choice the engine is currently inside.
func (e *dporEngine) pendingAt(nd *dporNode, k int) bool {
	return k != nd.idx && nd.flags[k]&(dporDone|dporBacktrack|dporAsleep) == dporBacktrack
}

func joinVC(dst, src []int32) {
	for t := range dst {
		if src[t] > dst[t] {
			dst[t] = src[t]
		}
	}
}

// RunDPOR performs unbounded depth-first search with source-set style
// dynamic partial-order reduction plus sleep sets. It explores at most the
// schedules sleep-set DFS would (one representative per Mazurkiewicz trace
// in the best case), reaching the same failure verdicts as RunDFS with —
// typically dramatically — fewer executions, and chooser-aborts the
// redundant runs it does start. With cfg.Workers > 1 the reduced tree is
// explored by the unit scheduler (see parallel.go); parallel counts
// are exact when no work was stolen and may otherwise include duplicated
// equivalence classes, but the bug verdict is preserved either way.
func RunDPOR(cfg Config) *Result { return runTree(cfg, DPOR) }
