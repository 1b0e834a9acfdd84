package explore

// Distribution hooks: the exported seams the distributed driver
// (internal/dist) builds on. There is one set of unit types — UnitState
// frontiers travel from coordinator to worker, UnitResultState tallies
// travel back, and the pool fills and checkpoints the very same structs —
// one unit step (exploreUnit, which RunUnit, the pool worker and the
// sequential driver all drive), one merge (MergeUnitStates) and one
// early-stop rule (BudgetReached), all in parallel.go. What a distributed
// job adds is only what this file holds: sharding up front, and running one
// leased unit.
//
// The distributed partitioning deliberately differs from the pool's in one
// way: there is NO worker-side donation. The pool donates lazily because
// its units live in one address space and a donated range is removed from
// its donor atomically; a distributed worker that donated after its lease
// was re-dispatched would leave the re-dispatched (undonated) unit and the
// donated child double-covering a range. Sharding happens once, up front,
// in ShardTree — every unit covers a fixed contiguous lexicographic range
// for DFS/IPB/IDB, so re-dispatching a lost unit from its original
// UnitState reproduces exactly the coverage the dead worker abandoned, and
// the canonical merge (MergeUnitStates) stays bit-identical to the
// sequential walk — complete or cut by the budget — no matter how many
// times a unit bounced between workers.

import (
	"fmt"
	"slices"

	"sctbench/internal/sched"
)

// newSearcher builds the fresh engine of one partitionable pass: a DFS or
// DPOR tree, or bound bound of an IPB/IDB sweep.
func newSearcher(cfg Config, tech Technique, bound int) (searcher, error) {
	switch tech {
	case DFS:
		return newEngine(cfg, CostNone, 0), nil
	case IPB:
		return newEngine(cfg, CostPreemptions, bound), nil
	case IDB:
		return newEngine(cfg, CostDelays, bound), nil
	case DPOR:
		return newDPOREngine(cfg), nil
	}
	return nil, fmt.Errorf("explore: technique %s cannot be partitioned", tech)
}

// ShardSet is the initial partition of one search pass — one DFS/DPOR
// tree, or one bound of an iterative sweep — into independently executable
// units.
type ShardSet struct {
	// Units are the leasable units. For DFS/IPB/IDB they cover disjoint
	// contiguous lexicographic ranges whose union is the whole pass; for
	// DPOR they cover every Mazurkiewicz trace (possibly with duplicated
	// reversals across units — the pool's verdict-level caveat).
	Units []UnitState
	// Done carries results finished during sharding itself: a tree whose
	// first execution exhausts it completes before it can be split.
	Done []UnitResultState
}

// ShardTree builds the engine for one pass and splits it into up to want
// units. The sharding run performs one execution (the stack to split only
// exists after a run); its tallies ride along in the donor unit's Partial,
// so nothing is lost or double-counted. bound is the IPB/IDB bound and
// ignored otherwise; Rand needs no sharding (runs are independent) and
// sleepset is sequential-only, so both are rejected.
func ShardTree(cfg Config, tech Technique, bound, want int) (*ShardSet, error) {
	cfg = cfg.withDefaults()
	eng, err := newSearcher(cfg, tech, bound)
	if err != nil {
		return nil, err
	}
	ex := newExecutor(cfg)
	defer ex.Close()
	eng.setExec(ex)
	res := &UnitResultState{}
	runUnitOnce(eng, res)
	if !eng.backtrack() {
		res.Pruned = eng.wasPruned()
		res.Branches = eng.prunedBranches()
		return &ShardSet{Done: []UnitResultState{*res}}, nil
	}
	set := &ShardSet{}
	for len(set.Units) < want-1 {
		u := eng.split()
		if u == nil {
			break
		}
		set.Units = append(set.Units, unitToState(u))
	}
	// The donor continues from its current (post-backtrack) position as a
	// positioned unit; its nil key is a prefix of every branch key, so the
	// donor — which covers the lexicographically earliest region — sorts
	// first in the canonical merge.
	set.Units = append(set.Units, unitToState(&unit{eng: eng, positioned: true, res: res}))
	return set, nil
}

// UnitRun is the outcome of RunUnit: Done for a finished (or panicked, or
// self-limited) unit, Parked for a suspended one, both nil for an abandoned
// one.
type UnitRun struct {
	Done   *UnitResultState
	Parked *UnitState
	// LimitHit reports that this unit alone counted its whole schedule
	// budget and stopped there; Done carries the exact tallies at that
	// point. For whoever collects the units it is just a finished unit: the
	// pass ends early only through BudgetReached, and the canonical merge
	// applies the budget.
	LimitHit bool
}

// RunUnit restores a unit's frontier and explores it to exhaustion, the
// budget, or the poll callback's verdict — the pool worker's unit step
// (exploreContained) over a leased unit. poll (nil = never stop early) runs
// before every execution. budget <= 0 means unlimited. A panic inside the
// program or substrate is contained exactly as in the pool: the unit
// completes with PanicMsg set (its counts will be forfeited at merge time)
// and the wedged executor is abandoned. us is not written to, so the same
// UnitState can be re-dispatched after a lost lease.
func RunUnit(cfg Config, us *UnitState, budget int, poll func() UnitAction) (*UnitRun, error) {
	cfg = cfg.withDefaults()
	eng, err := restoreSearcher(cfg, us.Engine)
	if err != nil {
		return nil, fmt.Errorf("unit: %w", err)
	}
	res := us.Partial.clone()
	if res == nil {
		res = &UnitResultState{Key: slices.Clone(us.Key)}
	}
	ex := newExecutor(cfg)
	eng.setExec(ex)
	end := exploreContained(eng, us.Positioned, res, unitDriver{
		poll:   poll,
		budget: func() int { return budget },
	})
	if end != unitPanicked {
		ex.Close()
	}
	switch end {
	case unitParked:
		parked := unitToState(&unit{eng: eng, key: us.Key, positioned: true, res: res})
		return &UnitRun{Parked: &parked}, nil
	case unitAbandoned:
		return &UnitRun{}, nil
	}
	return &UnitRun{Done: res, LimitHit: end == unitLimited}, nil
}

// CompareUnitKeys exposes the canonical unit order (branch-key
// lexicographic, prefix-orders-first) so the coordinator can dispatch
// units in approximately the sequential visit order — the same
// lex-priority heuristic the pool's take uses.
func CompareUnitKeys(a, b []int) int { return sched.CompareBranchKeys(a, b) }
