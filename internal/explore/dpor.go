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
// execution the engine walks the newly executed suffix; for each step it
// finds every earlier step by another thread whose operation is dependent
// (vthread.PendingInfo footprints) and not already ordered by the
// happens-before relation of the executed trace (computed with vector
// clocks over the same footprints, including spawn and join program-order
// edges). Each such pair is a reversible race: the racing thread joins
// the backtrack set of the earlier scheduling point (or, when it was not
// enabled there, every enabled thread does — the conservative source-set
// over-approximation). Sleep sets then prune the
// re-explorations that would only reproduce an already-covered
// Mazurkiewicz trace, and a run whose enabled threads are all asleep is
// chooser-aborted on the spot (vthread.Context.Abort), so detected
// redundancies cost their shared prefix only.
//
// The engine reuses the free-list discipline of engine: node
// buffers (order, infos, done/backtrack flags, sleep maps) and the
// race-analysis scratch (vector-clock rows, per-object access state) are
// recycled, so the replay-and-extend hot path allocates only while the
// stack or thread count grows past its high-water mark.

import (
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// dporNode is one scheduling point on the DPOR stack. order/infos list the
// enabled threads (canonical order) and their pending-operation
// footprints; idx is the choice the current execution takes; done marks
// choices whose subtrees are fully explored (or, in the parallel driver,
// owned by another unit that will fully explore them); backtrack marks the
// choices this node must explore; sleep is the inherited sleep set.
type dporNode struct {
	order     []sched.ThreadID
	infos     []vthread.PendingInfo
	idx       int
	done      []bool
	backtrack []bool
	sleep     map[sched.ThreadID]vthread.PendingInfo
	// nthreads is the thread count at this scheduling point; a thread id
	// in [nthreads(i), nthreads(i+1)) was created by step i, which is how
	// the race analysis recovers spawn happens-before edges.
	nthreads int
	// selOf marks a case-decision node: the thread whose Select this node
	// picks a case for, or NoThread for an ordinary thread-choice node. At
	// a case node order holds ready *case indices*, so the sleep map —
	// keyed by thread ids — must never be consulted with (or extended by)
	// order entries, and every case is explored unconditionally: case
	// alternatives are distinct program behaviours of the selecting thread,
	// never Mazurkiewicz-equivalent, so no commutation argument can prune
	// them.
	selOf sched.ThreadID
}

// dporObj is the per-object access state of one happens-before pass:
// the last write step and the reads since it. run is the epoch that
// invalidates stale state without clearing the map between runs.
type dporObj struct {
	run       int
	lastWrite int
	reads     []int
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

	// Free lists recycling retired nodes' buffers, as in engine.
	freeOrders [][]sched.ThreadID
	freeInfos  [][]vthread.PendingInfo
	freeFlags  [][]bool
	freeSleeps []map[sched.ThreadID]vthread.PendingInfo

	// Race-analysis scratch, persistent across runs. vc[i] is the vector
	// clock of step i (vc[i][t] = 1 + the latest step of thread t
	// happening-before-or-equal step i, 0 for none); prevOf[t] is thread
	// t's previous step during the forward pass; spawnOf[t] is the step
	// that created thread t (-1 for the initial thread), giving every
	// first step its spawn happens-before edge — without it, a child's
	// steps would look concurrent with everything before the spawn and
	// trigger spurious backtrack points; objs carries the per-object
	// last-write/readers state, epoch-invalidated by run.
	vc      [][]int32
	prevOf  []int
	spawnOf []int
	objs    map[string]*dporObj
	run     int
}

func newDPOREngine(cfg Config) *dporEngine {
	return &dporEngine{cfg: cfg, objs: make(map[string]*dporObj)}
}

// newSleepSetEngine builds the walker RunSleepSetDFS drives.
func newSleepSetEngine(cfg Config) *dporEngine {
	e := newDPOREngine(cfg)
	e.sleepOnly = true
	return e
}

// popOrderInfos pops recycled order/infos buffers from the free lists and
// fills them with the canonical choice order and the per-choice pending
// footprints for ctx — the scaffold of every fresh node.
func (e *dporEngine) popOrderInfos(ctx vthread.Context) ([]sched.ThreadID, []vthread.PendingInfo) {
	var order []sched.ThreadID
	if n := len(e.freeOrders); n > 0 {
		order, e.freeOrders = e.freeOrders[n-1], e.freeOrders[:n-1]
	}
	order = sched.AppendCanonicalOrder(order, ctx.Enabled, ctx.Last, ctx.NumThreads)
	var infos []vthread.PendingInfo
	if n := len(e.freeInfos); n > 0 {
		infos, e.freeInfos = e.freeInfos[n-1], e.freeInfos[:n-1]
	}
	for _, t := range order {
		infos = append(infos, ctx.PendingOf(t))
	}
	return order, infos
}

// Choose implements vthread.Chooser: replay the stack prefix, extend the
// deepest branch with the first non-sleeping thread, or abort when sleep
// sets prove the whole subtree redundant.
func (e *dporEngine) Choose(ctx vthread.Context) sched.ThreadID {
	if ctx.Step < len(e.stack) {
		nd := &e.stack[ctx.Step]
		return nd.order[nd.idx]
	}
	if idx := e.push(ctx); idx >= 0 {
		return e.stack[len(e.stack)-1].order[idx]
	}
	return ctx.Enabled[0] // ignored by the abort contract
}

// push appends the fresh node for ctx and returns the index of the choice
// taken (the first non-sleeping thread), or -1 after aborting a run whose
// enabled threads are all asleep: the subtree is Mazurkiewicz-equivalent
// to explored schedules, so the run is cut short instead of executing its
// tail, and the node is never pushed.
//
// At a case-decision point every ready case goes straight into the
// backtrack set — case choices are never redundant — and the sleep
// machinery is bypassed entirely: the inherited sleep set (thread-keyed) is
// carried through for the node's children but never consulted against the
// case indices in order. The node's thread count is the enclosing thread
// node's (ctx.NumThreads is the select's case count there), which keeps
// the spawn-watermark arithmetic of the race analysis exact.
func (e *dporEngine) push(ctx vthread.Context) int {
	isCase := ctx.SelectOf != vthread.NoThread
	order, infos := e.popOrderInfos(ctx)
	sleep := e.getSleep()
	nthreads := ctx.NumThreads
	if n := len(e.stack); n > 0 {
		dporChildSleep(&e.stack[n-1], sleep)
		if isCase {
			nthreads = e.stack[n-1].nthreads
		}
	}
	idx := 0
	if !isCase {
		e.maxThreads = max(e.maxThreads, nthreads)
		for idx < len(order) {
			if _, asleep := sleep[order[idx]]; !asleep {
				break
			}
			idx++
		}
		if idx == len(order) {
			ctx.Abort()
			e.pruned += len(order)
			e.freeOrders = append(e.freeOrders, order[:0])
			e.freeInfos = append(e.freeInfos, infos[:0])
			e.putSleep(sleep)
			return -1
		}
	}
	done := e.getFlags(len(order))
	backtrack := e.getFlags(len(order))
	for k := range backtrack {
		backtrack[k] = isCase || e.sleepOnly // sleep-set DFS: every choice, up front
	}
	backtrack[idx] = true
	e.stack = append(e.stack, dporNode{
		order: order, infos: infos, idx: idx,
		done: done, backtrack: backtrack, sleep: sleep,
		nthreads: nthreads, selOf: ctx.SelectOf,
	})
	return idx
}

// dporChildSleep fills dst with the sleep set a child of parent inherits:
// sleeping threads and fully explored siblings whose operations are
// independent of the branch being taken now. A case-decision parent
// contributes only its inherited sleep (already filtered by the full
// select footprint at the enclosing thread node, a superset of the
// committed case's channel): its siblings are case indices, not threads,
// and must never leak into a thread-keyed sleep map.
func dporChildSleep(parent *dporNode, dst map[sched.ThreadID]vthread.PendingInfo) {
	takenInfo := parent.infos[parent.idx]
	if parent.selOf != vthread.NoThread {
		for t, info := range parent.sleep {
			if info.Independent(takenInfo) {
				dst[t] = info
			}
		}
		return
	}
	taken := parent.order[parent.idx]
	for t, info := range parent.sleep {
		if t != taken && info.Independent(takenInfo) {
			dst[t] = info
		}
	}
	for k, isDone := range parent.done {
		if isDone && parent.infos[k].Independent(takenInfo) {
			dst[parent.order[k]] = parent.infos[k]
		}
	}
}

// runOnce executes the program once, replaying the stack prefix, then
// race-analyzes the newly executed steps to grow backtrack sets (sleep-set
// DFS starts every backtrack set full, so it has nothing to analyze).
func (e *dporEngine) runOnce() *vthread.Outcome {
	e.executions++
	out := e.exec.RunWith(e, nil, e.cfg.Program)
	if !e.sleepOnly {
		e.analyze()
	}
	e.analyzeFrom = len(e.stack)
	return out
}

// analyze performs the DPOR race pass over the current stack: a forward
// happens-before computation with vector clocks over the executed steps'
// footprints, and, for every step not analyzed before, a backward scan
// for dependent-and-concurrent steps by other threads. Each such race
// adds a backtrack point at the earlier scheduling point. The forward
// pass deliberately recomputes clocks from step 0 each run rather than
// checkpointing per-depth state: the race scan alone is already O(new
// steps x depth), the pass reuses pooled buffers, and on the CS-scale
// traces the engine targets the whole analysis is a small fraction of
// the execution it annotates.
func (e *dporEngine) analyze() {
	n := len(e.stack)
	if n == 0 || e.analyzeFrom >= n {
		return
	}
	e.run++
	nt := e.maxThreads
	e.ensureScratch(n, nt)
	for t := 0; t < nt; t++ {
		e.prevOf[t] = -1
		e.spawnOf[t] = -1
	}
	for i := 0; i < n; i++ {
		nd := &e.stack[i]
		p := int(nd.order[nd.idx])
		info := nd.infos[nd.idx]
		isCase := nd.selOf != vthread.NoThread
		if isCase {
			// A case-decision node is the second half of its select step:
			// attribute it to the selecting thread with no footprint of its
			// own. The enclosing thread node already carries the full member-
			// channel footprint (and recorded the writes), so every
			// dependence edge and race involving the select lands there —
			// where other threads were actual alternatives.
			p = int(nd.selOf)
			info = vthread.PendingInfo{}
		}
		// Threads first seen at the next scheduling point were created by
		// this step: record the spawn edge source.
		if i+1 < n {
			for t := nd.nthreads; t < e.stack[i+1].nthreads && t < nt; t++ {
				e.spawnOf[t] = i
			}
		}
		v := e.vc[i][:nt]
		for t := range v {
			v[t] = 0
		}
		if pp := e.prevOf[p]; pp >= 0 {
			joinVC(v, e.vc[pp][:nt])
		} else if sp := e.spawnOf[p]; sp >= 0 {
			joinVC(v, e.vc[sp][:nt]) // spawn happens-before the first step
		}
		// A join is ordered after every step of the joined thread (its
		// exit is not a scheduling point, so no object edge covers this).
		if info.IsJoin {
			if tgt := int(info.JoinOf); tgt >= 0 && tgt < nt {
				if tp := e.prevOf[tgt]; tp >= 0 {
					joinVC(v, e.vc[tp][:nt])
				}
			}
		}
		// Dependence edges from the per-object access history.
		for k := 0; k < info.Objects.Len(); k++ {
			st := e.obj(info.Objects.Obj(k))
			if st.lastWrite >= 0 {
				joinVC(v, e.vc[st.lastWrite][:nt])
			}
			if !info.ReadOnly {
				for _, rj := range st.reads {
					joinVC(v, e.vc[rj][:nt])
				}
			}
		}

		if i >= e.analyzeFrom && !isCase {
			e.addRaceBacktracks(i, p, info, nt)
		}

		// Update the access history and close the step's clock.
		for k := 0; k < info.Objects.Len(); k++ {
			st := e.obj(info.Objects.Obj(k))
			if info.ReadOnly {
				st.reads = append(st.reads, i)
			} else {
				st.lastWrite = i
				st.reads = st.reads[:0]
			}
		}
		v[p] = int32(i + 1)
		e.prevOf[p] = i
	}
}

// addRaceBacktracks scans backwards from step i (thread p, footprint
// info) and adds a backtrack point at every earlier step by another
// thread whose operation is dependent with i's and not already ordered
// before p by the happens-before relation of the trace. Considering every
// race of the trace — not only the most recent per step — is the
// source-set style formulation; it is what keeps the scan sound without a
// may-be-co-enabled oracle: the classic "last dependent step only" rule
// would let a release operation (never co-enabled with the acquire it
// unblocks, hence never reversible) shadow the reversible acquire-acquire
// race behind it.
func (e *dporEngine) addRaceBacktracks(i, p int, info vthread.PendingInfo, nt int) {
	// p's pre-state clock: its previous step, or the step that spawned it;
	// nil only for the initial thread's first step.
	var pre []int32
	if pp := e.prevOf[p]; pp >= 0 {
		pre = e.vc[pp][:nt]
	} else if sp := e.spawnOf[p]; sp >= 0 {
		pre = e.vc[sp][:nt]
	}
	for j := i - 1; j >= 0; j-- {
		ndj := &e.stack[j]
		if ndj.selOf != vthread.NoThread {
			// A case node has no footprint of its own and no thread
			// alternatives to reverse into; the race against its select, if
			// any, is found at the enclosing thread node right above it.
			continue
		}
		q := int(ndj.order[ndj.idx])
		if q == p {
			continue // program order, never reversible
		}
		if ndj.infos[ndj.idx].Independent(info) {
			continue
		}
		if pre != nil && pre[q] >= int32(j+1) {
			continue // already ordered before p's step by other dependences
		}
		// Reversible race (j, i): thread p must be tried at point j — or,
		// when p was not enabled there, every enabled thread must (the
		// conservative source-set over-approximation).
		hit := false
		for k, t := range ndj.order {
			if int(t) == p {
				ndj.backtrack[k] = true
				hit = true
				break
			}
		}
		if !hit {
			for k := range ndj.backtrack {
				ndj.backtrack[k] = true
			}
		}
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
		nd.done[nd.idx] = true
		next := e.firstPending(nd)
		if next >= 0 {
			nd.idx = next
			e.analyzeFrom = d
			return true
		}
		// Retire the node; every choice never explored is a subtree DFS
		// would have walked. Borrowed prefix copies are the donor's to
		// count.
		if d >= e.borrowed {
			for k := range nd.order {
				if !nd.done[k] {
					e.pruned++
				}
			}
		}
		e.freeOrders = append(e.freeOrders, nd.order[:0])
		e.freeInfos = append(e.freeInfos, nd.infos[:0])
		e.freeFlags = append(e.freeFlags, nd.done[:0], nd.backtrack[:0])
		e.putSleep(nd.sleep)
		nd.order, nd.infos, nd.done, nd.backtrack, nd.sleep = nil, nil, nil, nil, nil
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
// Case nodes skip the sleep lookup: their order entries are case indices,
// which must never be matched against the thread-keyed sleep map.
func (e *dporEngine) pendingAt(nd *dporNode, k int) bool {
	if k == nd.idx || !nd.backtrack[k] || nd.done[k] {
		return false
	}
	if nd.selOf != vthread.NoThread {
		return true
	}
	_, asleep := nd.sleep[nd.order[k]]
	return !asleep
}

// Buffer pools.

func (e *dporEngine) getFlags(n int) []bool {
	var f []bool
	if m := len(e.freeFlags); m > 0 {
		f, e.freeFlags = e.freeFlags[m-1], e.freeFlags[:m-1]
	}
	for i := 0; i < n; i++ {
		f = append(f, false)
	}
	return f
}

func (e *dporEngine) getSleep() map[sched.ThreadID]vthread.PendingInfo {
	if n := len(e.freeSleeps); n > 0 {
		s := e.freeSleeps[n-1]
		e.freeSleeps = e.freeSleeps[:n-1]
		return s
	}
	return make(map[sched.ThreadID]vthread.PendingInfo)
}

func (e *dporEngine) putSleep(s map[sched.ThreadID]vthread.PendingInfo) {
	clear(s)
	e.freeSleeps = append(e.freeSleeps, s)
}

// ensureScratch sizes the vector-clock rows for n steps of nt threads.
func (e *dporEngine) ensureScratch(n, nt int) {
	for len(e.vc) < n {
		e.vc = append(e.vc, nil)
	}
	for i := 0; i < n; i++ {
		if cap(e.vc[i]) < nt {
			e.vc[i] = make([]int32, nt)
		}
		e.vc[i] = e.vc[i][:nt]
	}
	if cap(e.prevOf) < nt {
		e.prevOf = make([]int, nt)
	}
	e.prevOf = e.prevOf[:nt]
	if cap(e.spawnOf) < nt {
		e.spawnOf = make([]int, nt)
	}
	e.spawnOf = e.spawnOf[:nt]
}

// obj returns the epoch-validated access state of an object key.
func (e *dporEngine) obj(key string) *dporObj {
	st := e.objs[key]
	if st == nil {
		st = &dporObj{}
		e.objs[key] = st
	}
	if st.run != e.run {
		st.run = e.run
		st.lastWrite = -1
		st.reads = st.reads[:0]
	}
	return st
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
// explored by the work-stealing pool (see parallel.go); parallel counts
// are exact when no work was stolen and may otherwise include duplicated
// equivalence classes, but the bug verdict is preserved either way.
func RunDPOR(cfg Config) *Result {
	if cfg.Workers > 1 {
		return runParallel(cfg, DPOR)
	}
	cfg = cfg.withDefaults()
	return runSequentialTree(cfg, &Result{Technique: DPOR}, newDPOREngine(cfg))
}
