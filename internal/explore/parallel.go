package explore

// Units, the one unit step, and the parallel driver. The schedule space of
// one program is a tree whose nodes are scheduling points and whose edges are
// CanonicalOrder choices; an engine walks it depth first. Every tree search
// is a set of prefix-pinned subtrees ("units") driven through one loop
// (exploreUnit), merged in canonical order (MergeUnitStates) and judged per
// pass (PassMerge.Commit). Three drivers stand on that: runSequential
// (techniques.go) explores each pass as its one root unit on the caller's
// goroutine; RunUnit (dist.go) explores one leased unit for the distributed
// coordinator; and the pool in this file partitions the tree among its
// workers, with work-stealing: whenever the pool starves, a running
// worker donates the untried sibling range of the shallowest open node on
// its stack as a new unit (the owner works at the tail of its stack, the
// donation is carved off at the head — the deque discipline of the
// work-stealing queue benchmarked in examples/wsq). Units are generic over
// the searcher interface, so the same pool drives the plain DFS/IPB/IDB
// engine and the DPOR engine (whose donations deep-copy backtrack, done
// and sleep state; see dporEngine.split).
//
// Determinism. Depth-first search visits terminal schedules in the
// lexicographic order of their branch keys (sched.CompareBranchKeys), and
// every DFS/IPB/IDB unit covers a contiguous lexicographic range, so
// concatenating per-unit results sorted by start key reproduces the
// sequential visit order exactly — no matter how the work-stealing
// happened to cut the tree. Schedule totals, per-bound NewSchedules,
// completeness, the first-bug selection and its witness are therefore
// bit-identical to Workers: 1 — for a search that completes, one Limit
// truncates, and one killed and resumed alike. The schedules inside the
// budget must be the canonically first ones, and which unit counts first is
// a matter of timing, so the budget is never handed out while the search
// runs: Limit is applied in one place, the canonical merge
// (MergeUnitStates). A unit stops itself once it alone has counted a whole
// budget (exploreUnit), and a job stops early only when its finished front
// already holds the budget (BudgetReached). The price is work: a truncated
// parallel search may perform up to about workers × budget executions the
// merge cuts away. Every unit tallies its own work, and Executions,
// TotalSteps and AbortedExecutions are the honest sum (cancelled speculative
// bounds included) — the only Result fields that depend on timing.
//
// DPOR is the exception to exactness: its backtrack sets grow from races
// observed at runtime, so a donated unit and its donor may later discover
// the same reversal independently and both explore it. Parallel DPOR is
// sound — every Mazurkiewicz trace the sequential search covers is covered
// — and bit-identical to Workers: 1 whenever no work was stolen, but under
// stealing the schedule count may include duplicated equivalence classes.
// The bug verdict and completeness are preserved either way, complete or
// truncated.
//
// Iterative bounding (IPB/IDB) additionally overlaps bound sweeps: while
// bound k drains, a lower-priority job speculatively explores bound k+1 in
// the same pool. If bound k finds the bug or completes the space, the
// speculative job is cancelled and its results are discarded; otherwise it
// is promoted and its partial progress is kept.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sctbench/internal/faultinject"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// searcher is the engine contract of the one unit step (exploreUnit) and so
// of its three drivers: runSequential, the worker pool and RunUnit. It has
// exactly two implementations — engine (DFS/IPB/IDB: cost-bounded
// backtracking shares only scaffolding with partial-order reduction) and
// dporEngine (DPOR and, in its sleep-set-only form, sleep-set DFS). A
// searcher is confined to one goroutine at a time; donation transfers
// ownership of the returned unit's engine to whichever worker takes it.
type searcher interface {
	// setExec points the engine at the executor of the worker currently
	// running it; its next execution there shares nothing with the last.
	setExec(ex *vthread.Executor)
	// runOnce executes the program once, replaying the stack prefix.
	runOnce() *vthread.Outcome
	// backtrack advances to the next branch, false when exhausted.
	backtrack() bool
	// counts reports whether out is a terminal schedule this search
	// counts (exact-bound for IPB/IDB, non-redundant for the pruning
	// engines).
	counts(out *vthread.Outcome) bool
	// split carves off a donated unit, or returns nil when every node is
	// closed (always, for a searcher that does not partition). The
	// donated state must be deep-copied: donor and donee run on
	// different workers.
	split() *unit
	// wasPruned reports that a bounded search skipped an over-bound
	// alternative (engine only; decides Complete for IPB/IDB).
	wasPruned() bool
	// prunedBranches is the number of enabled siblings retired unexplored
	// by partial-order reduction (pruning engines only; 0 otherwise).
	prunedBranches() int
	// techName is the checkpoint technique string of the search this engine
	// performs; snapshot serializes its frontier (checkpoint.go).
	techName() string
	snapshot() *EngineState
}

// searcher implementation for the DFS/IPB/IDB engine.

func (e *engine) setExec(ex *vthread.Executor) { e.exec, e.shared = ex, 0 }
func (e *engine) wasPruned() bool              { return e.pruned }
func (e *engine) prunedBranches() int          { return 0 }

// counts reports whether the execution is a terminal schedule this engine
// counts: every terminal one for DFS, exactly-at-bound ones for IPB/IDB.
func (e *engine) counts(out *vthread.Outcome) bool {
	if out.StepLimitHit {
		return false
	}
	switch e.model {
	case CostPreemptions:
		return out.PC == e.bound
	case CostDelays:
		return out.DC == e.bound
	default:
		return true
	}
}

// split carves the untried sibling range (idx, hi] off the shallowest open
// node of the engine's stack as a prefix-pinned unit, or returns nil when
// every node is closed. The donated unit is created in backtrack-first
// state so the ordinary backtracking path advances it into (and
// bound-prunes) its range.
func (e *engine) split() *unit {
	for d := 0; d < len(e.stack); d++ {
		nd := &e.stack[d]
		if nd.idx >= nd.hi {
			continue
		}
		key := make([]int, d+1)
		stack := make([]node, d+1)
		copy(stack, e.stack[:d+1])
		// Deep-copy the node buffers: the donor recycles its order/costs
		// slices through its free list on backtrack, so sharing them with
		// the donated engine (which runs on another worker) would be a
		// use-after-recycle race.
		for i := range stack {
			stack[i].order = append([]sched.ThreadID(nil), stack[i].order...)
			stack[i].costs = append([]int(nil), stack[i].costs...)
		}
		for i := 0; i < d; i++ {
			key[i] = stack[i].idx
			stack[i].hi = stack[i].idx // pin the prefix
		}
		key[d] = nd.idx + 1
		ne := newEngine(e.cfg, e.model, e.bound)
		ne.stack = stack
		nd.hi = nd.idx // the donor no longer owns the range
		return &unit{eng: ne, key: key}
	}
	return nil
}

// searcher implementation for the DPOR engine.

func (e *dporEngine) setExec(ex *vthread.Executor) { e.exec, e.shared = ex, 0 }
func (e *dporEngine) wasPruned() bool              { return false }
func (e *dporEngine) prunedBranches() int          { return e.pruned }

// counts: aborted runs are detected redundancies, not terminal schedules.
func (e *dporEngine) counts(out *vthread.Outcome) bool {
	return !out.StepLimitHit && !out.Aborted
}

// split donates every pending backtrack candidate of the shallowest node
// that has one, deep-copying the stack up to and including that node. The
// donee's prefix copies carry no pending work of their own (the donor
// keeps its candidates), but stay live: a race the donee discovers against
// its pinned prefix re-opens its local copy, so no reversal is ever lost —
// at worst donor and donee both explore it (see the package comment). The
// donor marks the donated candidates done: the donee will explore them
// fully, so for the donor's later sleep-set computations they count as
// explored siblings.
func (e *dporEngine) split() *unit {
	for d := 0; d < len(e.stack); d++ {
		nd := &e.stack[d]
		first := e.firstPending(nd)
		if first < 0 {
			continue
		}
		ne := newDPOREngine(e.cfg)
		ne.sleepOnly = e.sleepOnly
		ne.maxThreads = e.maxThreads
		ne.stack = make([]dporNode, d+1)
		for i := 0; i <= d; i++ {
			src := &e.stack[i]
			cp := dporNode{
				order:     append([]sched.ThreadID(nil), src.order...),
				infos:     append([]vthread.PendingInfo(nil), src.infos...),
				idx:       src.idx,
				done:      append([]bool(nil), src.done...),
				backtrack: make([]bool, len(src.order)),
				sleep:     make(map[sched.ThreadID]vthread.PendingInfo, len(src.sleep)),
				nthreads:  src.nthreads,
				selOf:     src.selOf,
			}
			for t, info := range src.sleep {
				cp.sleep[t] = info
			}
			// Locally, only already-explored choices and the current one
			// exist; the donor's other pending candidates stay its own.
			for k := range cp.backtrack {
				cp.backtrack[k] = cp.done[k]
			}
			cp.backtrack[cp.idx] = true
			if i == d {
				for k := range src.order {
					if e.pendingAt(src, k) {
						cp.backtrack[k] = true
					}
				}
				// The donor finishes its current choice itself.
				cp.done[cp.idx] = true
			}
			ne.stack[i] = cp
		}
		ne.borrowed = d + 1
		ne.analyzeFrom = d + 1
		for k := range nd.order {
			if e.pendingAt(nd, k) {
				nd.done[k] = true
			}
		}
		key := make([]int, d+1)
		for i := 0; i < d; i++ {
			key[i] = e.stack[i].idx
		}
		key[d] = first
		return &unit{eng: ne, key: key}
	}
	return nil
}

// unit is a prefix-pinned sub-search: an engine whose stack prefix is
// pinned and whose shallowest open node may be restricted to a sibling
// range (DFS) or a donated candidate set (DPOR). key is the branch key of
// the first position the unit covers; positioned units run immediately,
// donated units backtrack first (the uniform path that also handles
// bound-pruning of the donated range).
type unit struct {
	eng        searcher
	key        []int
	positioned bool
	// res carries a parked unit's partial tallies across a suspension
	// (checkpoint/resume); nil for units that have never run.
	res *UnitResultState
}

// observe folds one execution's statistics in.
func (s *RunStats) observe(out *vthread.Outcome) {
	s.fold(RunStats{MaxEnabled: out.MaxEnabled, SchedPts: out.SchedPoints, Threads: out.Threads})
}

// fold merges another accumulator in.
func (s *RunStats) fold(o RunStats) {
	s.MaxEnabled = max(s.MaxEnabled, o.MaxEnabled)
	s.SchedPts = max(s.SchedPts, o.SchedPts)
	s.Threads = max(s.Threads, o.Threads)
}

// foldInto merges the accumulator into a Result.
func (s RunStats) foldInto(r *Result) {
	r.MaxEnabled = max(r.MaxEnabled, s.MaxEnabled)
	r.MaxSchedPoints = max(r.MaxSchedPoints, s.SchedPts)
	r.Threads = max(r.Threads, s.Threads)
}

// ---------------------------------------------------------------------------
// The unit step: one loop under three drivers — runSequential (the root unit
// of each pass, on the caller's goroutine), the pool worker and RunUnit.

// UnitAction is the verdict of a unit's per-execution poll.
type UnitAction int

const (
	// UnitContinue: keep exploring.
	UnitContinue UnitAction = iota
	// UnitPark: suspend. The unit stops positioned — post-backtrack, ready
	// for its next execution — with its partial tallies, which is exactly
	// the state checkpoints serialize and a re-dispatch re-enters.
	UnitPark
	// UnitAbandon: stop without a verdict — the job was cancelled, the
	// lease is lost or a simulated kill -9 fired.
	UnitAbandon
)

// unitEnd says how exploreUnit left a unit.
type unitEnd int

const (
	unitFinished  unitEnd = iota // range exhausted
	unitLimited                  // the unit alone counted the whole budget
	unitParked                   // poll said UnitPark; the engine is positioned
	unitAbandoned                // poll said UnitAbandon, or executed said stop
	unitPanicked                 // exploreContained caught a panic; res.PanicMsg is set
)

// unitDriver is what the unit loop asks of whoever drives it.
type unitDriver struct {
	// poll runs before every execution (nil = never stop early).
	poll func() UnitAction
	// budget is the pass's schedule budget, read after every counted
	// schedule (<= 0 = unlimited).
	budget func() int
	// executed runs after every execution, before the next backtrack (nil =
	// nothing to do); false abandons the unit.
	executed func(eng searcher) bool
}

// exploreUnit is the one per-execution loop of every tree-search driver:
// poll, execute and tally (runUnitOnce), stop once the unit by itself holds
// the whole budget, backtrack. A unit parks only at the loop top, where the
// engine is positioned. However the unit is left, res says what its engine
// had pruned by then. A panic out of an execution passes through: whether it
// is contained is the driver's promise, not the loop's (exploreContained).
func exploreUnit(eng searcher, positioned bool, res *UnitResultState, d unitDriver) unitEnd {
	defer func() {
		res.Pruned = eng.wasPruned()
		res.Branches = eng.prunedBranches()
	}()
	for alive := positioned || eng.backtrack(); alive; alive = eng.backtrack() {
		if d.poll != nil {
			switch d.poll() {
			case UnitPark:
				return unitParked
			case UnitAbandon:
				return unitAbandoned
			}
		}
		counted := runUnitOnce(eng, res)
		if d.executed != nil && !d.executed(eng) {
			return unitAbandoned
		}
		if b := d.budget(); counted && b > 0 && res.Schedules >= b {
			return unitLimited
		}
	}
	return unitFinished
}

// exploreContained is exploreUnit for the two drivers that promise to
// survive a panic — the pool and RunUnit. Program, substrate or an injected
// worker death, it is contained here, once: the unit ends forfeited
// (res.PanicMsg) and the caller must abandon the executor the engine ran on.
func exploreContained(eng searcher, positioned bool, res *UnitResultState, d unitDriver) (end unitEnd) {
	defer func() {
		if rec := recover(); rec != nil {
			res.PanicMsg = fmt.Sprint(rec)
			end = unitPanicked
		}
	}()
	return exploreUnit(eng, positioned, res, d)
}

// runUnitOnce performs one execution on eng, folding every per-unit tally
// — work counters, run statistics, schedule counting, first-bug capture —
// into res, and reports whether the terminal-schedule count grew.
func runUnitOnce(eng searcher, res *UnitResultState) bool {
	out := eng.runOnce()
	res.Executions++
	res.Steps += int64(len(out.Trace))
	if out.Aborted {
		res.Aborted++
	}
	before := res.RunStats
	if res.observe(out); res.RunStats != before {
		res.StatMarks = append(res.StatMarks, StatMark{Before: res.Schedules, RunStats: res.RunStats})
	}
	if !eng.counts(out) {
		return false
	}
	res.Schedules++
	if out.Buggy() {
		res.BuggyOffs = append(res.BuggyOffs, res.Schedules)
		if res.Failure == nil {
			res.Failure = out.Failure
			res.Witness = out.Trace.Clone()
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// The canonical merge and the early budget stop.

// PassMerge is the merged outcome of one pass (one DFS/DPOR tree, or one
// bound of an iterative sweep) over its units.
type PassMerge struct {
	Schedules      int
	Buggy          int
	BugFound       bool
	FirstBugOffset int // 1-based, within this pass
	Failure        *vthread.Failure
	Witness        sched.Schedule
	Pruned         bool
	Branches       int
	Truncated      bool // the budget cut the walk short
	WorkerPanics   int
	PanicMsg       string
	RunStats
	// Summed per-unit work tallies.
	Executions int
	Steps      int64
	Aborted    int
}

// MergeUnitStates concatenates unit results in canonical order (branch-key
// lexicographic, prefix-orders-first — sched.CompareBranchKeys) and is the
// one place the schedule budget is applied: the walk takes exactly the
// first budget schedules. When the units up to that cut are fully
// enumerated — always on a finished pass, and BudgetReached is what lets a
// driver end one early — totals, the cut, the first-bug offset and its
// witness land exactly where a sequential search puts them (DPOR:
// verdict-level under stealing). Executions a sequential search would not
// have reached must not move its statistics: units past the cut contribute
// work tallies and forfeitures only, and the unit the cut lands in reports
// its maxima as of the cut (StatMarks). Duplicate completions of one unit
// must be deduplicated by the caller.
//
// Forfeited units — a worker panicked mid-unit, or (in the distributed
// driver) a lease was abandoned and the unit's stale result discarded —
// keep the merge honest rather than optimistic:
//   - the unit's schedule counts, bug offsets and witness are dropped, so
//     a half-explored range can never masquerade as an enumerated one;
//   - its run statistics (max enabled threads, scheduling points, thread
//     count) and work tallies still fold in — they describe executions
//     that really happened;
//   - the forfeiture surfaces as WorkerPanics/PanicMsg, and every driver
//     withholds Complete whenever WorkerPanics > 0.
//
// The contract under forfeiture is therefore verdict-level: a bug found
// by a surviving unit is reported at its canonical offset, counts remain
// exact over the surviving coverage and the budget still truncates
// canonically, but completeness and totals describe only the units that
// survived.
func MergeUnitStates(done []*UnitResultState, budget int) PassMerge {
	units := done
	if len(done) > 1 { // a sequential pass is always its one root unit
		units = slices.Clone(done)
		slices.SortFunc(units, func(a, b *UnitResultState) int {
			return sched.CompareBranchKeys(a.Key, b.Key)
		})
	}
	var m PassMerge
	for _, u := range units {
		m.Executions += u.Executions
		m.Steps += u.Steps
		m.Aborted += u.Aborted
		if u.PanicMsg != "" {
			m.WorkerPanics++
			if m.PanicMsg == "" {
				m.PanicMsg = u.PanicMsg
			}
		}
		if m.Schedules >= budget {
			m.Truncated = m.Truncated || (u.PanicMsg == "" && u.Schedules > 0)
			continue
		}
		if u.PanicMsg != "" {
			m.fold(u.RunStats)
			continue
		}
		m.Pruned = m.Pruned || u.Pruned
		m.Branches += u.Branches
		take := u.Schedules
		if m.Schedules+take > budget {
			take = budget - m.Schedules
			m.Truncated = true
		}
		m.fold(u.statsAt(take, m.Schedules+take >= budget))
		for _, off := range u.BuggyOffs {
			if off > take {
				break
			}
			m.Buggy++
			if !m.BugFound {
				m.BugFound = true
				m.FirstBugOffset = m.Schedules + off
				m.Failure = u.Failure
				m.Witness = u.Witness
			}
		}
		m.Schedules += take
	}
	return m
}

// statsAt is the unit's run statistics as the merge may report them: all
// of them, unless the budget cut falls inside (or exactly at the end of)
// this unit — then only what the executions up to its take-th counted
// schedule saw, which is where a sequential search stops.
func (u *UnitResultState) statsAt(take int, cut bool) RunStats {
	if !cut || len(u.StatMarks) == 0 {
		return u.RunStats
	}
	var s RunStats
	for _, mark := range u.StatMarks {
		if mark.Before < take {
			s = mark.RunStats
		}
	}
	return s
}

// FoldInto folds a merged pass into r; prior is the number of schedules
// counted by earlier (committed) passes, for the cross-pass first-bug
// offset.
func (m *PassMerge) FoldInto(r *Result, prior int) {
	m.RunStats.foldInto(r)
	r.BuggySchedules += m.Buggy
	r.BranchesPruned += m.Branches
	r.WorkerPanics += m.WorkerPanics
	if m.PanicMsg != "" && r.WorkerPanicMsg == "" {
		r.WorkerPanicMsg = m.PanicMsg
	}
	if m.BugFound && !r.BugFound {
		r.BugFound = true
		r.Failure = m.Failure
		r.Witness = m.Witness
		r.SchedulesToFirstBug = prior + m.FirstBugOffset
	}
	r.Executions += m.Executions
	r.TotalSteps += m.Steps
	r.AbortedExecutions += m.Aborted
}

// PassEnd is what a driver knows about a pass that ended, beyond its merge.
type PassEnd struct {
	// Iterative: the pass is one bound (Bound, of at most MaxBound) of an
	// IPB/IDB sweep, not a whole DFS/DPOR tree.
	Iterative       bool
	Bound, MaxBound int
	// Counted is the schedules committed by earlier bounds; Limit the
	// search's schedule limit.
	Counted, Limit int
	// GuardHit: the MaxExecutions guard tripped during the pass.
	GuardHit bool
	// Stopped, when not StopCompleted, is why the pass was cut short from
	// outside (interrupt, deadline, drain): the merge is then a partial
	// result, and the units behind it are in a checkpoint.
	Stopped StopReason
}

// Commit folds the merged pass into r and reports whether the search ends
// with it — the per-pass verdict of every driver, sequential, pool and
// coordinator: the limits first, then completeness (nothing pruned, nothing
// forfeited), then the paper's rule that the bound exposing the bug is the
// last one enumerated (§5). A pass cut short from outside gets no verdict.
func (m *PassMerge) Commit(r *Result, e PassEnd) (final bool) {
	if e.Iterative {
		r.Bound = e.Bound
		r.NewSchedules = m.Schedules
	}
	m.FoldInto(r, e.Counted)
	r.Schedules = e.Counted + m.Schedules
	switch {
	case e.Stopped != StopCompleted:
		r.Stopped = e.Stopped
	case r.Schedules >= e.Limit || m.Truncated || e.GuardHit:
		r.LimitHit = true
		r.Stopped = StopLimit
	case !e.Iterative || !m.Pruned:
		// The space is exhausted — unless a forfeited unit means coverage
		// cannot be claimed.
		r.Complete = r.WorkerPanics == 0
	default:
		return r.BugFound || e.Bound == e.MaxBound
	}
	return true
}

// BudgetReached is the early-stop predicate of a pass with a schedule
// budget, shared by the pool and the distributed coordinator: it reports
// that the finished units lexicographically before the earliest live unit
// already hold the whole budget. done are the finished units' results, live
// the keys of every unit still queued, running, leased or parked.
//
// This is the only condition under which a pass may end with units
// outstanding: MergeUnitStates takes the budget from the front of the
// canonical order, so it is safe to stop exactly when that front is known —
// every unit ahead of the first gap is finished (exhausted, or stopped by
// itself at a whole budget) and together they fill the budget. Schedules
// counted behind a live unit say nothing about the front, however many; a
// forfeited unit holds none. Callers skip the call while the finished units
// hold fewer schedules than the budget in total, so a pass that completes
// under its budget never pays for it.
func BudgetReached(done []*UnitResultState, live [][]int, budget int) bool {
	inFront := func([]int) bool { return true }
	if len(live) > 0 {
		first := slices.MinFunc(live, sched.CompareBranchKeys)
		inFront = func(key []int) bool { return sched.CompareBranchKeys(key, first) < 0 }
	}
	held := 0
	for _, u := range done {
		if u.PanicMsg == "" && inFront(u.Key) {
			held += u.Schedules
		}
	}
	return held >= budget
}

// ---------------------------------------------------------------------------
// The in-process pool.

// job is one complete pass over the tree (one DFS, or one bound of an
// iterative search) being explored by the pool.
type job struct {
	// All guarded by pool.mu. A unit is in exactly one of queue (donors
	// append at the tail, thieves take the lexicographic head), running (a
	// worker is inside it) and parked (a suspension or a stop set it aside,
	// positioned or not, with whatever it had tallied), or it is finished
	// and its result is in results.
	queue   []*unit
	running []*unit
	parked  []*unit
	results []*UnitResultState
	// held sums the schedules of the finished, unforfeited units: the cheap
	// gate in front of BudgetReached.
	held   int
	closed bool // done has been closed

	// stop cancels the job: running units finish their current execution
	// only. budgetHit (guarded by pool.mu) and execLimitHit say why.
	stop         atomic.Bool
	budgetHit    bool
	execLimitHit atomic.Bool
	// budget is the pass's schedule budget, Limit minus what earlier bounds
	// committed. It is compared against (exploreUnit, BudgetReached), never
	// spent. A speculative bound runs under the budget known when it was
	// created and is given the exact one on promotion.
	budget atomic.Int64

	// own counts this job's executions and is what execLimit — the
	// MaxExecutions budget left when the job was created, tightened as
	// earlier bounds commit — guards, so speculative work never burns the
	// active bound's execution budget.
	own       atomic.Int64
	execLimit atomic.Int64

	// ctl is the exploration's shared stop signal; workers poll it before
	// every execution and suspend the job when it trips. suspend asks
	// running units to park instead of continuing.
	ctl     *stopCtl
	suspend atomic.Bool

	done chan struct{}
}

// pool runs worker goroutines over an ordered list of jobs; workers always
// prefer the earliest job with queued work, so a speculative bound only
// consumes cycles the active bound cannot use. All jobs of a pool explore
// under one Config.
type pool struct {
	cfg    Config
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*job
	idle   int
	closed bool
	wg     sync.WaitGroup
}

func newPool(cfg Config) *pool {
	p := &pool{cfg: cfg}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < max(cfg.Workers, 1); i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// addJob registers a pass: fresh (units is the whole-tree root), or carried
// over from a suspension with its parked units, finished results and
// execution count. A resume checkpoint may carry only completed units — the
// stop landed right after the last unit finished — or a front that already
// fills the budget; either way the job is born drained and its done channel
// closes here.
func (p *pool) addJob(ctl *stopCtl, budget int, execLimit int64,
	units []*unit, results []*UnitResultState, own int64) *job {
	j := &job{ctl: ctl, queue: units, results: results, done: make(chan struct{})}
	j.budget.Store(int64(budget))
	j.execLimit.Store(execLimit)
	j.own.Store(own)
	for _, res := range results {
		if res.PanicMsg == "" {
			j.held += res.Schedules
		}
	}
	p.mu.Lock()
	p.jobs = append(p.jobs, j)
	p.checkBudgetLocked(j)
	p.settleLocked(j)
	p.mu.Unlock()
	p.cond.Broadcast()
	return j
}

// removeJob drops a finished job from the scan list.
func (p *pool) removeJob(j *job) {
	p.mu.Lock()
	p.jobs = slices.DeleteFunc(p.jobs, func(x *job) bool { return x == j })
	p.mu.Unlock()
}

// settleLocked closes a job's done channel once no unit is queued or
// running.
func (p *pool) settleLocked(j *job) {
	if len(j.queue)+len(j.running) == 0 && !j.closed {
		j.closed = true
		close(j.done)
	}
}

// stopJob cancels a job: queued units are set aside unrun, running units
// observe j.stop and finish their current execution only.
func (p *pool) stopJob(j *job) {
	p.mu.Lock()
	p.stopJobLocked(j)
	p.mu.Unlock()
}

func (p *pool) stopJobLocked(j *job) {
	j.stop.Store(true)
	j.parked = append(j.parked, j.queue...)
	j.queue = nil
	p.settleLocked(j)
}

// checkBudgetLocked stops a job whose finished front already holds its
// budget (see BudgetReached). It runs when a unit finishes — the only event
// that can make the predicate true: a donation adds a live unit behind its
// live donor — and when a promotion tightens the budget.
func (p *pool) checkBudgetLocked(j *job) {
	budget := int(j.budget.Load())
	if j.held < budget || j.stop.Load() {
		return
	}
	var live [][]int
	for _, us := range [][]*unit{j.queue, j.running, j.parked} {
		for _, u := range us {
			live = append(live, u.key)
		}
	}
	if BudgetReached(j.results, live, budget) {
		j.budgetHit = true
		p.stopJobLocked(j)
	}
}

// promote gives a speculative job that became the active one its exact
// budgets: it ran under those known at its creation, before the bound just
// committed had counted its schedules and spent consumed executions. Either
// may already be used up — a small bound can finish speculatively before it
// is promoted, and then no later execution would notice.
func (p *pool) promote(j *job, budget int, consumed int64) {
	p.mu.Lock()
	j.budget.Store(int64(budget))
	if j.own.Load() >= j.execLimit.Add(-consumed) {
		j.execLimitHit.Store(true)
		p.stopJobLocked(j)
	}
	p.checkBudgetLocked(j)
	p.mu.Unlock()
}

// close stops every job and joins the workers.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	for _, j := range p.jobs {
		p.stopJobLocked(j)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker owns one reusable Executor for its whole lifetime: every unit it
// picks up (whatever the job or bound) runs its executions on it, so
// thread goroutines and buffers are recycled across units, not just
// within one.
func (p *pool) worker() {
	defer p.wg.Done()
	var ex *vthread.Executor
	defer func() {
		if ex != nil {
			ex.Close()
		}
	}()
	for {
		j, u := p.take()
		if u == nil {
			return
		}
		if ex == nil {
			ex = newExecutor(p.cfg)
		}
		u.eng.setExec(ex)
		if p.runUnit(j, u) == unitPanicked {
			// The unit panicked mid-execution: the executor may hold a
			// wedged run (on the reference engine, parked goroutines), so
			// abandon it and build a fresh one for the next unit. The flat
			// engine leaks nothing; the reference engine leaks that run's
			// parked goroutines, which is the price of surviving.
			ex = nil
		}
	}
}

// take steals the lexicographically smallest queued unit of the earliest
// job with work, or blocks. Lex-priority stealing keeps the workers
// clustered on the earliest open regions of the tree, so the frontier
// advances in approximately the sequential visit order — which is what
// lets a budgeted pass fill its front (BudgetReached) soon after a
// sequential search would have stopped, instead of scattering executions
// across distant subtrees the merge will cut away.
func (p *pool) take() (*job, *unit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, nil
		}
		for _, j := range p.jobs {
			if len(j.queue) > 0 {
				best := 0
				for i := 1; i < len(j.queue); i++ {
					if sched.CompareBranchKeys(j.queue[i].key, j.queue[best].key) < 0 {
						best = i
					}
				}
				u := j.queue[best]
				j.queue = append(j.queue[:best], j.queue[best+1:]...)
				j.running = append(j.running, u)
				return j, u
			}
		}
		p.idle++
		p.cond.Wait()
		p.idle--
	}
}

// leaveUnit takes a unit a worker is done with off the running list: parked
// (a suspension — the unit is positioned and resumable — or a stop, where
// only its tallies still matter) or finished, its result joining the merge.
func (p *pool) leaveUnit(j *job, u *unit, end unitEnd) {
	p.mu.Lock()
	j.running = slices.DeleteFunc(j.running, func(x *unit) bool { return x == u })
	switch end {
	case unitParked, unitAbandoned:
		j.parked = append(j.parked, u)
	default:
		j.results = append(j.results, u.res)
		if end != unitPanicked {
			j.held += u.res.Schedules
			p.checkBudgetLocked(j)
		}
	}
	p.settleLocked(j)
	p.mu.Unlock()
}

// enqueue adds a donated unit to a job's queue, unless the job was
// cancelled in the meantime: the donor already gave the range up, so the
// unit would have to be explored — by nobody. That is fine: what a stopped
// job has not enumerated lies behind its budget cut, or the job's results
// are discarded altogether.
func (p *pool) enqueue(j *job, u *unit) {
	p.mu.Lock()
	if j.stop.Load() || p.closed {
		p.mu.Unlock()
		return
	}
	j.queue = append(j.queue, u)
	p.mu.Unlock()
	p.cond.Signal()
}

// maybeDonate splits the engine's shallowest open sibling range into a new
// unit when the pool is starving and the job's queue is empty.
func (p *pool) maybeDonate(j *job, eng searcher) {
	p.mu.Lock()
	starving := p.idle > 0 && len(j.queue) == 0 && !j.stop.Load() &&
		!j.suspend.Load() && !p.closed
	p.mu.Unlock()
	if !starving {
		return
	}
	if u := eng.split(); u != nil {
		p.enqueue(j, u)
	}
}

// stallHead is the faultinject.PoolStallHead site: the worker inside the
// job's lexicographically first unit donates what it can and then waits
// until the units behind it have finished a whole budget's worth of
// schedules (or nothing else is left to run) — the interleaving in which a
// pass that handed its budget to whoever counted first would keep the wrong
// schedules.
func (p *pool) stallHead(j *job, eng searcher) {
	if u := eng.split(); u != nil {
		p.enqueue(j, u)
	}
	for {
		p.mu.Lock()
		release := j.held >= int(j.budget.Load()) || len(j.queue)+len(j.running) <= 1 ||
			j.stop.Load() || p.closed
		p.mu.Unlock()
		if release {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// runUnit drives one unit through exploreContained — to exhaustion, the
// budget, a suspension or a cancellation, donating work along the way — and
// files it under the job. unitPanicked tells the worker to abandon its executor.
func (p *pool) runUnit(j *job, u *unit) unitEnd {
	if u.res == nil {
		u.res = &UnitResultState{Key: u.key}
	}
	end := exploreContained(u.eng, u.positioned, u.res, unitDriver{
		poll: func() UnitAction {
			if j.stop.Load() {
				return UnitAbandon
			}
			if _, stop := j.ctl.poll(); stop {
				p.suspendJob(j)
			}
			if j.suspend.Load() {
				return UnitPark
			}
			if faultinject.Hit(faultinject.PoolUnitPanic) {
				panic("faultinject: worker death mid-unit")
			}
			if len(u.key) == 0 && faultinject.Hit(faultinject.PoolStallHead) {
				p.stallHead(j, u.eng)
			}
			return UnitContinue
		},
		budget: func() int { return int(j.budget.Load()) },
		executed: func(eng searcher) bool {
			// Post-execution check with >=, as in runSequential: the execution
			// that exhausts the guard still runs (and counts).
			if j.own.Add(1) >= j.execLimit.Load() {
				j.execLimitHit.Store(true)
				p.stopJob(j)
				return false
			}
			p.maybeDonate(j, eng)
			return true
		},
	})
	u.positioned = end == unitParked
	p.leaveUnit(j, u, end)
	return end
}

// suspendJob asks a running job to park: queued units are set aside
// immediately, running units park at their next per-execution check.
// Idempotent, and a no-op on a stopped job (a cancelled job's state is
// discarded, not checkpointed).
func (p *pool) suspendJob(j *job) {
	p.mu.Lock()
	if !j.stop.Load() && !j.suspend.Load() {
		j.suspend.Store(true)
		j.parked = append(j.parked, j.queue...)
		j.queue = nil
		p.settleLocked(j)
	}
	p.mu.Unlock()
}

// collectJob gathers a drained job: its parked units, its finished results,
// and why it was cut short from outside — StopCompleted when it was not, or
// when its own budgets stopped it first (its finished front fills the
// schedule budget, or the execution guard tripped): its merge is then
// final, whatever else asked it to stop. Safe only after j.done has closed
// (no worker owns any of the units then).
func (p *pool) collectJob(j *job) (parked []*unit, results []*UnitResultState, cut StopReason) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if reason, stopped := j.ctl.reason(); stopped && !j.budgetHit && !j.execLimitHit.Load() {
		cut = reason
	}
	return j.parked, j.results, cut
}

// withParkedPartials appends the partial tallies of parked units to a
// drained job's finished results: counted schedules and performed work
// must never be dropped, whether the merge is for a checkpointed partial
// result or for a job its budget stopped.
func withParkedPartials(results []*UnitResultState, parked []*unit) []*UnitResultState {
	results = slices.Clone(results)
	for _, u := range parked {
		if u.res != nil {
			results = append(results, u.res)
		}
	}
	return results
}

// cancelJob stops a job whose results are not wanted (a speculative bound
// the search never reached), waits for its workers to let go, and folds the
// work it did into r: Executions stays the honest total.
func cancelJob(p *pool, j *job, r *Result) {
	p.stopJob(j)
	<-j.done
	p.removeJob(j)
	parked, results, _ := p.collectJob(j)
	m := MergeUnitStates(withParkedPartials(results, parked), 0)
	r.Executions += m.Executions
	r.TotalSteps += m.Steps
	r.AbortedExecutions += m.Aborted
}

// unitToState serializes a live unit.
func unitToState(u *unit) UnitState {
	return UnitState{
		Key:        slices.Clone(u.key),
		Positioned: u.positioned,
		Engine:     u.eng.snapshot(),
		Partial:    u.res,
	}
}

// poolCheckpoint serializes a drained job: its parked units (each a
// positioned engine plus partial tallies) and its finished unit results,
// on top of the cross-pass totals.
func poolCheckpoint(cfg Config, r *Result, j *job, parked []*unit, results []*UnitResultState,
	bound, counted int, committedExecs int64) *Checkpoint {
	units := make([]UnitState, len(parked))
	for i, u := range parked {
		units[i] = unitToState(u)
	}
	done := make([]UnitResultState, len(results))
	for i, ur := range results {
		done[i] = *ur
	}
	ck := NewPassCheckpoint(cfg, r, bound, counted, committedExecs, units, done)
	// Equal to the per-unit sum already there unless the job was itself
	// resumed from a file whose units carried no work tallies.
	ck.Pool.OwnExecs = j.own.Load()
	return ck
}

// NewPassCheckpoint assembles the resumable checkpoint of one suspended
// pass, for the pool and the distributed coordinator alike. cfg carries the
// search parameters (defaults applied) and Meta. r must be the *pre-merge*
// cross-pass result — the units' contributions are folded in on resume, so
// folding them here too would double-count — and its work tallies are the
// baseline the units' own add to; counted and committedExecs are the
// schedules and executions committed by earlier bounds.
func NewPassCheckpoint(cfg Config, r *Result, bound, counted int, committedExecs int64,
	units []UnitState, done []UnitResultState) *Checkpoint {
	ps := &PoolState{Counted: counted, CommittedExecs: committedExecs, Units: units, Done: done}
	pass, schedules := ps.unitWork()
	ps.BudgetLeft = max(0, int64(cfg.Limit-counted-schedules))
	ps.ExecLimitLeft = int64(cfg.MaxExecutions) - committedExecs
	ps.OwnExecs = int64(pass.Executions)
	ps.Execs = int64(r.Executions + pass.Executions)
	ps.Steps = r.TotalSteps + pass.Steps
	ps.Aborts = int64(r.AbortedExecutions + pass.Aborted)
	ck := newCheckpoint(cfg, r.Technique.String(), r)
	ck.Bound = bound
	ck.Pool = ps
	return ck
}

// unitWork sums the work tallies and counted schedules of the pass's units,
// parked and done.
func (ps *PoolState) unitWork() (work PassMerge, schedules int) {
	add := func(u *UnitResultState) {
		work.Executions += u.Executions
		work.Steps += u.Steps
		work.Aborted += u.Aborted
		schedules += u.Schedules
	}
	for i := range ps.Done {
		add(&ps.Done[i])
	}
	for i := range ps.Units {
		if p := ps.Units[i].Partial; p != nil {
			add(p)
		}
	}
	return work, schedules
}

// RebaseWork sets r's work tallies to the baseline a resumed pass builds
// on, so that baseline plus the merged per-unit tallies reproduces the
// exploration's totals no matter who wrote the checkpoint: units that carry
// their own tallies are subtracted here and added back by the merge; units
// from a build whose pool counted work on shared counters carry none, and
// the whole counter value lands in the baseline.
func (ps *PoolState) RebaseWork(r *Result) {
	pass, _ := ps.unitWork()
	r.Executions = int(ps.Execs) - pass.Executions
	r.TotalSteps = ps.Steps - pass.Steps
	r.AbortedExecutions = int(ps.Aborts) - pass.Aborted
}

// doneResults lists the finished unit results a resumed job starts with.
func (ps *PoolState) doneResults() []*UnitResultState {
	results := make([]*UnitResultState, len(ps.Done))
	for i := range ps.Done {
		results[i] = &ps.Done[i]
	}
	return results
}

// runPasses is the one parallel driver of the tree techniques: each pass —
// the DFS or DPOR tree (see the package comment for DPOR's exactness
// caveat), or one bound of an IPB/IDB sweep — is one job, explored to
// completion, the limit, or interruption; a sweep runs the next bound
// speculatively behind the active one. units and ps resume the pass at
// startBound from a pool checkpoint (units are ps.Units brought back to
// life, r carries the work baseline — PoolState.RebaseWork): its parked
// units and finished results are reseeded exactly, while a speculative
// bound (whose progress a checkpoint discards — its results would have been
// recomputed anyway) restarts from scratch. A fresh search passes no units
// and an empty ps.
func runPasses(cfg Config, r *Result, startBound int, units []*unit, ps *PoolState) *Result {
	tech := r.Technique
	sweep := tech == IPB || tech == IDB
	maxBound := startBound
	if sweep {
		maxBound = cfg.MaxBound
	}
	p := newPool(cfg)
	defer p.close()
	ctl := newStopCtl(cfg)
	ckw := newCkWriter(cfg)

	committedExecs := ps.CommittedExecs // executions of committed bounds, speculation excluded
	counted := ps.Counted               // schedules of committed bounds
	newJob := func(bound int, units []*unit, results []*UnitResultState, own int64) *job {
		if len(units)+len(results) == 0 {
			root, _ := newSearcher(cfg, tech, bound) // tech is partitionable: the callers checked
			units = []*unit{{eng: root, positioned: true}}
		}
		execLimit := int64(math.MaxInt64) // single passes have no execution guard
		if sweep {
			execLimit = int64(cfg.MaxExecutions) - committedExecs
		}
		return p.addJob(ctl, cfg.Limit-counted, execLimit, units, results, own)
	}
	// A pass suspended before it was seeded (a coordinator drained between
	// bounds, or before sharding) has neither units nor results: like a
	// fresh one, it starts from its root.
	active := newJob(startBound, units, ps.doneResults(), ps.OwnExecs)
	var spec *job
	if startBound < maxBound {
		spec = newJob(startBound+1, nil, nil, 0)
	}
	for bound := startBound; ; bound++ {
		if sweep {
			<-active.done
		} else {
			active = p.waitTree(cfg, r, active, ckw)
		}
		p.removeJob(active)
		parked, results, reason := p.collectJob(active)
		if reason != StopCompleted && spec != nil {
			cancelJob(p, spec, r) // before the checkpoint: its work is part of the totals
			spec = nil
		}
		if reason != StopCompleted && !ctl.crashed.Load() {
			writeCheckpoint(cfg, r, poolCheckpoint(cfg, r, active, parked, results, bound, counted, committedExecs))
		}
		m := MergeUnitStates(withParkedPartials(results, parked), cfg.Limit-counted)
		final := m.Commit(r, PassEnd{Iterative: sweep, Bound: bound, MaxBound: maxBound,
			Counted: counted, Limit: cfg.Limit, GuardHit: active.execLimitHit.Load(), Stopped: reason})
		counted += m.Schedules
		if final {
			break
		}
		ownExecs := active.own.Load()
		committedExecs += ownExecs
		active, spec = spec, nil
		p.promote(active, cfg.Limit-counted, ownExecs)
		if bound+1 < maxBound {
			spec = newJob(bound+2, nil, nil, 0)
		}
	}
	if spec != nil {
		cancelJob(p, spec, r)
	}
	return r
}

// waitTree waits for a single-pass job to drain, taking periodic
// stop-the-world checkpoints when configured. Reseeding replaces the job
// object, so the job that finally drained is returned.
func (p *pool) waitTree(cfg Config, r *Result, j *job, ckw *ckWriter) *job {
	if ckw == nil {
		<-j.done
		return j
	}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-j.done:
			return j
		case <-tick.C:
			if _, stopped := j.ctl.reason(); stopped || !ckw.due(int(j.own.Load())) {
				continue
			}
			nj, ok := p.periodicTreeCheckpoint(cfg, r, j)
			j = nj
			if !ok {
				<-j.done
				return j
			}
			ckw.last = int(j.own.Load())
		}
	}
}

// periodicTreeCheckpoint stop-the-world checkpoints a running job:
// suspend, wait for every unit to park, serialize, then reseed an
// identical job with the very same parked units (in-process — no
// serialization round trip). ok=false when the job finished or stopped
// instead of parking, or a simulated mid-write crash ended the run; the
// drained job is then left as it is for the final merge.
func (p *pool) periodicTreeCheckpoint(cfg Config, r *Result, j *job) (*job, bool) {
	p.suspendJob(j)
	<-j.done
	parked, results, _ := p.collectJob(j)
	if _, trip := j.ctl.reason(); j.stop.Load() || trip || len(parked) == 0 {
		return j, false
	}
	if writeCheckpoint(cfg, r, poolCheckpoint(cfg, r, j, parked, results, 0, 0, 0)) {
		j.ctl.crash()
		return j, false
	}
	p.removeJob(j)
	return p.addJob(j.ctl, int(j.budget.Load()), j.execLimit.Load(), parked, results, j.own.Load()), true
}
