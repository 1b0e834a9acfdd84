package explore

// Units, the one unit step, and the canonical merge. The schedule space of
// one program is a tree whose nodes are scheduling points and whose edges are
// CanonicalOrder choices; an engine walks it depth first. Every tree search
// is a set of prefix-pinned subtrees ("units") driven through one loop
// (exploreUnit), merged in canonical order (MergeUnitStates) and judged per
// pass (PassMerge.Commit). Two drivers stand on that: runSequential
// (techniques.go) explores each pass as its one root unit on the caller's
// goroutine, and the unit scheduler (scheduler.go) partitions each pass
// among workers. A unit is split by carving the untried sibling range of the
// shallowest open node off its engine's stack (the owner works at the tail,
// the split is carved off at the head — the deque discipline of the
// work-stealing queue in examples/wsq), for the DFS/IPB/IDB engine and the
// DPOR engine alike (dporEngine.split copies the donated prefix's flags and
// sleep sets and shares its footprints).
//
// Determinism. Depth-first search visits terminal schedules in the
// lexicographic order of their branch keys (sched.CompareBranchKeys), and
// every DFS/IPB/IDB unit covers a contiguous lexicographic range, so
// concatenating per-unit results sorted by start key reproduces the
// sequential visit order exactly — no matter how the splitting
// happened to cut the tree. Schedule totals, per-bound NewSchedules,
// completeness, the first-bug selection and its witness are therefore
// bit-identical to Workers: 1 — for a search that completes, one Limit
// truncates, and one killed and resumed alike. The schedules inside the
// budget must be the canonically first ones, and which unit counts first is
// a matter of timing, so the budget is never handed out while the search
// runs: Limit is applied in one place, the canonical merge
// (MergeUnitStates). A unit stops itself once it alone has counted a whole
// budget (exploreUnit), and a pass stops early only when its finished front
// already holds the budget (BudgetReached). The price is work: a truncated
// parallel search may perform up to about workers × budget executions the
// merge cuts away. Every unit tallies its own work, and Executions,
// TotalSteps and AbortedExecutions are the sum over the units of the passes
// the search committed (a cancelled speculative bound's work is not in it) —
// the only Result fields that depend on timing.
//
// DPOR is the exception to exactness: its backtrack sets grow from races
// observed at runtime, so a donated unit and its donor may later discover
// the same reversal independently and both explore it. Parallel DPOR is
// sound — every Mazurkiewicz trace the sequential search covers is covered
// — and bit-identical to Workers: 1 whenever no unit was split, but once
// one is the schedule count may include duplicated equivalence classes.
// The bug verdict and completeness are preserved either way, complete or
// truncated.

import (
	"fmt"
	"slices"

	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// searcher is the engine contract of the one unit step (exploreUnit) and so
// of its two drivers: runSequential and the unit scheduler. It has
// exactly two implementations — engine (DFS/IPB/IDB: cost-bounded
// backtracking shares only scaffolding with partial-order reduction) and
// dporEngine (DPOR and, in its sleep-set-only form, sleep-set DFS). A
// searcher is confined to one goroutine at a time.
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
	// split carves off a donated subtree, or returns nil when every node
	// is closed. The donated state must be deep-copied: donor and donee
	// run on different workers.
	split() *subtree
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
func (e *engine) split() *subtree {
	for d := 0; d < len(e.stack); d++ {
		nd := &e.stack[d]
		if nd.idx >= nd.hi {
			continue
		}
		// The donee runs on another worker: it gets copies of the nodes and
		// of their orders, at the offsets they have here.
		ne := newEngine(e.cfg, e.model, e.bound, nil)
		ne.stack = slices.Clone(e.stack[:d+1])
		ne.orders = slices.Clone(e.orders[:nd.off+nd.n])
		key := make([]int, d+1)
		for i := 0; i < d; i++ {
			key[i] = ne.stack[i].idx
			ne.stack[i].hi = ne.stack[i].idx // pin the prefix
		}
		key[d] = nd.idx + 1
		nd.hi = nd.idx // the donor no longer owns the range
		return &subtree{eng: ne, key: key}
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
// that has one, copying the stack up to and including that node (the
// footprints are shared, not copied: see dporNode). The
// donee's prefix copies carry no pending work of their own (the donor
// keeps its candidates), but stay live: a race the donee discovers against
// its pinned prefix re-opens its local copy, so no reversal is ever lost —
// at worst donor and donee both explore it (see the package comment). The
// donor marks the donated candidates done: the donee will explore them
// fully, so for the donor's later sleep-set computations they count as
// explored siblings.
func (e *dporEngine) split() *subtree {
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
			// The copy refers to the donor's footprints, which the donor
			// therefore never overwrites (dporNode.lent).
			src.lent = true
			cp := dporNode{
				order:    append([]sched.ThreadID(nil), src.order...),
				infos:    append([]*vthread.PendingInfo(nil), src.infos...),
				flags:    make([]uint8, len(src.flags)),
				sleep:    append([]dporSleeper(nil), src.sleep...),
				idx:      src.idx,
				nthreads: src.nthreads,
				selOf:    src.selOf,
			}
			// Locally, only already-explored choices and the current one
			// exist; the donor's other pending candidates stay its own.
			for k, f := range src.flags {
				cp.flags[k] = f &^ dporBacktrack
				if f&dporDone != 0 {
					cp.flags[k] |= dporBacktrack
				}
			}
			cp.flags[cp.idx] |= dporBacktrack
			if i == d {
				for k := range src.order {
					if e.pendingAt(src, k) {
						cp.flags[k] |= dporBacktrack
					}
				}
				// The donor finishes its current choice itself.
				cp.flags[cp.idx] |= dporDone
			}
			ne.stack[i] = cp
		}
		ne.borrowed = d + 1
		ne.analyzeFrom = d + 1
		for k := range nd.order {
			if e.pendingAt(nd, k) {
				nd.flags[k] |= dporDone
			}
		}
		key := make([]int, d+1)
		for i := 0; i < d; i++ {
			key[i] = e.stack[i].idx
		}
		key[d] = first
		return &subtree{eng: ne, key: key}
	}
	return nil
}

// subtree is what split carves off: an engine whose stack prefix is pinned
// and whose shallowest open node is restricted to a sibling range (DFS) or a
// donated candidate set (DPOR), and the branch key of the first position it
// covers. It is created backtrack-first, the uniform path that also
// bound-prunes the donated range.
type subtree struct {
	eng searcher
	key []int
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
// The unit step: one loop under both drivers — runSequential (the root unit
// of each pass, on the caller's goroutine) and every worker loop of the
// scheduler (runLease).

// UnitAction is the verdict of a unit's per-execution poll.
type UnitAction int

const (
	// UnitContinue: keep exploring.
	UnitContinue UnitAction = iota
	// UnitPark: suspend. The unit stops positioned — post-backtrack, ready
	// for its next execution — with its partial tallies, which is exactly
	// the state checkpoints serialize and a re-dispatch re-enters.
	UnitPark
	// UnitAbandon: stop without a verdict — the pass was sealed, the
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

// exploreContained is exploreUnit for the worker loop, which survives a
// panic — program, substrate or an injected worker death: the unit ends
// forfeited (res.PanicMsg), and the caller must abandon the executor.
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
		res.addBuggy(res.Schedules)
		if res.Failure == nil {
			res.Failure = out.Failure.Clone()
			res.Witness = out.Trace.Clone()
		}
	}
	return true
}

// addBuggy records that the unit's off-th counted schedule is buggy: it
// extends the last run when off follows it, and starts a run otherwise.
func (u *UnitResultState) addBuggy(off int) {
	if n := len(u.BuggyRuns); n > 0 && u.BuggyRuns[n-1][0]+u.BuggyRuns[n-1][1] == off {
		u.BuggyRuns[n-1][1]++
		return
	}
	u.BuggyRuns = append(u.BuggyRuns, [2]int{off, 1})
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
//   - the unit's schedule counts, buggy runs and witness are dropped, so
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
		kept := u.Schedules
		if m.Schedules+kept > budget {
			kept = budget - m.Schedules
			m.Truncated = true
		}
		m.fold(u.statsAt(kept, m.Schedules+kept >= budget))
		for _, run := range u.BuggyRuns {
			n := min(run[1], kept-run[0]+1) // the run's schedules inside the cut
			if n <= 0 {
				break
			}
			m.Buggy += n
			if !m.BugFound {
				m.BugFound = true
				m.FirstBugOffset = m.Schedules + run[0]
				m.Failure = u.Failure
				m.Witness = u.Witness
			}
		}
		m.Schedules += kept
	}
	return m
}

// statsAt is the unit's run statistics as the merge may report them: all
// of them, unless the budget cut falls inside (or exactly at the end of)
// this unit — then only what the executions up to its kept-th counted
// schedule saw, which is where a sequential search stops.
func (u *UnitResultState) statsAt(kept int, cut bool) RunStats {
	if !cut || len(u.StatMarks) == 0 {
		return u.RunStats
	}
	var s RunStats
	for _, mark := range u.StatMarks {
		if mark.Before < kept {
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
// with it — the per-pass verdict of both drivers, sequential and
// scheduler: the limits first, then completeness (nothing pruned, nothing
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
// budget, the scheduler's (on either transport): it reports
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
