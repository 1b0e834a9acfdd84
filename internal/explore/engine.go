// Package explore implements the systematic and random exploration drivers
// of the study (§5): unbounded depth-first search (DFS), iterative
// preemption bounding (IPB), iterative delay bounding (IDB) and the naive
// random scheduler (Rand), plus the schedule-limit accounting that Table 3
// of the paper reports, and the §7 partial-order-reduction extensions:
// sleep-set DFS (sleepset.go) and source-set dynamic partial-order
// reduction (dpor.go) — one walker, dporEngine, in two forms — both of
// which cut detected-redundant runs short through the substrate's
// chooser-abort path. There are two search engines: engine (this file;
// DFS/IPB/IDB) and dporEngine. Either is driven through one unit step, one
// canonical merge and one per-pass verdict (exploreUnit, MergeUnitStates,
// PassMerge.Commit in parallel.go) by whichever driver Config.Workers
// selects — runSequential on the caller's goroutine, or the work-partitioned
// unit scheduler (scheduler.go) when Workers > 1 — and Rand by the one sweep
// runRand at any worker count, so a worker count says where a technique
// runs, never which code runs it. Results are identical either way for
// DFS/IPB/IDB/Rand, complete or truncated by Limit (DPOR preserves verdicts;
// its counts are exact unless a unit was split).
package explore

import (
	"fmt"
	"slices"

	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// CostModel selects which schedule cost a bounded search prunes on.
type CostModel int

const (
	// CostNone disables pruning (unbounded DFS).
	CostNone CostModel = iota
	// CostPreemptions prunes on the preemption count PC (§2).
	CostPreemptions
	// CostDelays prunes on the delay count DC over the non-preemptive
	// round-robin deterministic scheduler (§2).
	CostDelays
)

// String returns the cost-model name.
func (c CostModel) String() string {
	switch c {
	case CostNone:
		return "none"
	case CostPreemptions:
		return "preemptions"
	case CostDelays:
		return "delays"
	}
	return "unknown"
}

// node is one scheduling point on the DFS stack: the canonical choice
// order, the incremental cost of each choice, and which choice the current
// execution takes. hi is the last choice index this engine owns; a fresh
// node owns the whole order (hi = len(order)-1), while the parallel driver
// pins prefix nodes (hi = idx, no alternatives) and restricts a donated
// sibling range (idx..hi) so disjoint engines partition the tree.
type node struct {
	order []sched.ThreadID
	costs []int
	idx   int
	hi    int
	base  int // cumulative cost of the prefix strictly before this point
}

// engine is a depth-first stateless-search driver. It doubles as the
// vthread.Chooser of the executions it spawns: each execution replays the
// choices on the stack and extends the deepest branch; backtracking advances
// the deepest node with an untried (and, under a bound, affordable)
// alternative.
type engine struct {
	cfg   Config
	model CostModel
	bound int // ignored when model == CostNone

	// exec runs this engine's executions. It is owned by the driver (one
	// per sequential run, one per worker loop of the scheduler) and
	// assigned before the first runOnce; engines donated between workers
	// are re-pointed at the stealing worker's executor.
	exec *vthread.Executor

	stack   []node
	running int // cumulative cost of the current execution so far
	// shared is the number of leading steps the next execution repeats from
	// the previous one this engine ran on exec (vthread.Executor.RunFrom):
	// backtrack leaves every node below the one it advanced as it was, so it
	// is that node's depth. Zero — nothing promised — for a new engine value
	// (fresh, donated, restored from a checkpoint), after setExec and once
	// the execution has been run.
	shared int

	// freeOrders and freeCosts recycle the per-node order/costs buffers:
	// backtrack pushes a popped node's slices here and Choose pops them for
	// the next fresh node, so the replay-and-extend hot path allocates only
	// while the stack grows past its high-water mark.
	freeOrders [][]sched.ThreadID
	freeCosts  [][]int

	// pruned records that some alternative was skipped because it exceeded
	// the bound; if a bounded pass completes without pruning, the whole
	// schedule space has been explored.
	pruned bool

	executions int
}

func newEngine(cfg Config, model CostModel, bound int) *engine {
	return &engine{cfg: cfg, model: model, bound: bound}
}

// newExecutor builds the reusable execution context every driver in this
// package runs programs on. Callers own it and must Close it.
func newExecutor(cfg Config) *vthread.Executor {
	return vthread.NewExecutor(vthread.Options{
		Visible:     cfg.Visible,
		MaxSteps:    cfg.MaxSteps,
		BoundsCheck: cfg.BoundsCheck,
		Debug:       cfg.Debug,
	})
}

// Choose implements vthread.Chooser.
func (e *engine) Choose(ctx vthread.Context) sched.ThreadID {
	if ctx.Step < len(e.stack) {
		nd := &e.stack[ctx.Step]
		e.running = nd.base + nd.costs[nd.idx]
		return nd.order[nd.idx]
	}
	return e.push(ctx)
}

// push records the fresh node for ctx, advances the running cost, and
// returns the choice taken (the canonical first).
func (e *engine) push(ctx vthread.Context) sched.ThreadID {
	// Recycled buffers, or — while the stack grows past its high-water mark —
	// one allocation each, sized for the point.
	var order []sched.ThreadID
	if n := len(e.freeOrders); n > 0 {
		order, e.freeOrders = e.freeOrders[n-1], e.freeOrders[:n-1]
	}
	order = sched.AppendCanonicalOrder(slices.Grow(order, len(ctx.Enabled)), ctx.Enabled, ctx.Last, ctx.NumThreads)
	var costs []int
	if n := len(e.freeCosts); n > 0 {
		costs, e.freeCosts = e.freeCosts[n-1], e.freeCosts[:n-1]
	}
	costs = slices.Grow(costs, len(order))
	// order is the canonical one, so under delay bounding a choice costs its
	// position in it (sched.DelayCost).
	for i, t := range order {
		cost := 0
		switch e.model {
		case CostPreemptions:
			cost = sched.PCStep(ctx.Last, ctx.LastEnabled, t)
		case CostDelays:
			cost = sched.DelayCost(ctx.Last, i)
		}
		costs = append(costs, cost)
	}
	nd := node{order: order, costs: costs, hi: len(order) - 1, base: e.running}
	// The canonical first choice is the deterministic scheduler's pick and
	// always has incremental cost zero under both models, so it is never
	// pruned.
	if costs[0] != 0 && e.model != CostNone {
		panic(fmt.Sprintf("explore: canonical first choice has nonzero cost %d", costs[0]))
	}
	e.stack = append(e.stack, nd)
	e.running = nd.base + costs[0]
	return order[0]
}

// runOnce executes the program once on the engine's executor, replaying
// the stack prefix. The returned Outcome is valid until the next run on
// the same executor (clone the trace to retain it).
func (e *engine) runOnce() *vthread.Outcome {
	e.running = 0
	e.executions++
	out := execute(e.cfg, e.exec, e, e.shared)
	e.shared = 0
	e.checkCost(out)
	return out
}

// runHook is the differential-oracle hook of the package's tests, nil
// otherwise: it is handed every execution of both engines in execute's place
// (prefix_oracle_test.go), to run it from the initial state instead, or to
// hold the outcome against one that was.
var runHook func(cfg Config, ex *vthread.Executor, c vthread.Chooser, shared int) *vthread.Outcome

// execute runs cfg.Program once on ex for an engine — the chooser c — whose
// first shared choices repeat those of the execution it ran there before.
func execute(cfg Config, ex *vthread.Executor, c vthread.Chooser, shared int) *vthread.Outcome {
	if runHook != nil {
		return runHook(cfg, ex, c, shared)
	}
	return ex.RunFrom(c, cfg.Program, shared)
}

// checkCost cross-validates the engine's running cost against the world's
// independent online accounting; a mismatch means the cost model and the
// substrate disagree, which is an implementation bug worth failing fast on.
func (e *engine) checkCost(out *vthread.Outcome) {
	if out.StepLimitHit {
		return
	}
	switch e.model {
	case CostPreemptions:
		if out.PC != e.running {
			panic(fmt.Sprintf("explore: engine PC %d != world PC %d", e.running, out.PC))
		}
	case CostDelays:
		if out.DC != e.running {
			panic(fmt.Sprintf("explore: engine DC %d != world DC %d", e.running, out.DC))
		}
	}
}

// backtrack advances the search to the next unexplored branch, returning
// false when the (bounded) space is exhausted.
func (e *engine) backtrack() bool {
	for len(e.stack) > 0 {
		nd := &e.stack[len(e.stack)-1]
		advanced := false
		for j := nd.idx + 1; j <= nd.hi; j++ {
			if e.model != CostNone && nd.base+nd.costs[j] > e.bound {
				e.pruned = true
				continue
			}
			nd.idx = j
			advanced = true
			break
		}
		if advanced {
			e.shared = len(e.stack) - 1
			return true
		}
		// Pop the exhausted node and recycle its buffers. Donated stacks
		// are deep-copied by split, so the slices are exclusively ours.
		e.freeOrders = append(e.freeOrders, nd.order[:0])
		e.freeCosts = append(e.freeCosts, nd.costs[:0])
		nd.order, nd.costs = nil, nil
		e.stack = e.stack[:len(e.stack)-1]
	}
	return false
}
