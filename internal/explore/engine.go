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

// node is one scheduling point on the DFS stack: its canonical choice order,
// orders[off : off+n] of the engine's arena, and which choice the current
// execution takes. hi is the last choice index this engine owns: all of them
// for a fresh node, while the parallel driver pins prefix nodes (hi = idx)
// and restricts a donated sibling range (idx..hi). A choice's cost is read
// off its position (engine.cost), zero unless the node is costly: then one
// past the first under IPB (the last thread is enabled), the position under
// IDB (a thread ran last).
type node struct {
	off, n, idx, hi int
	base            int // cumulative cost of the prefix strictly before this point
	costly          bool
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

	// stack and orders, the arena every node's order lives in, grow and
	// shrink together, and pass from engine to engine as a driver moves on
	// (newEngine's spare): a push allocates only past their high-water mark.
	stack   []node
	orders  []sched.ThreadID
	running int // cumulative cost of the current execution so far
	// shared is the number of leading steps the next execution repeats from
	// the previous one this engine ran on exec (vthread.Executor.RunFrom):
	// backtrack leaves every node below the one it advanced as it was, so it
	// is that node's depth. Zero — nothing promised — for a new engine value
	// (fresh, donated, restored from a checkpoint), after setExec and once
	// the execution has been run.
	shared int

	// pruned records that some alternative was skipped because it exceeded
	// the bound; if a bounded pass completes without pruning, the whole
	// schedule space has been explored.
	pruned bool

	executions int
}

// newEngine builds an engine on the node storage of spare, an engine its
// driver is done with, or nil.
func newEngine(cfg Config, model CostModel, bound int, spare searcher) *engine {
	e := &engine{cfg: cfg, model: model, bound: bound}
	if s, ok := spare.(*engine); ok {
		e.stack, e.orders = s.stack[:0], s.orders[:0]
	}
	return e
}

// newExecutor builds the reusable execution context every driver in this
// package runs programs on. Callers own it and must Close it.
func newExecutor(cfg Config) *vthread.Executor {
	return vthread.NewExecutor(vthread.Options{
		Visible:     cfg.Visible,
		MaxSteps:    cfg.MaxSteps,
		BoundsCheck: cfg.BoundsCheck,
	})
}

// Choose implements vthread.Chooser. A point whose node has no untried
// choice within the bound is one no later execution of this engine chooses
// differently at, so no prefix state is saved there (Context.NoResume).
func (e *engine) Choose(ctx vthread.Context) sched.ThreadID {
	if ctx.Step == len(e.stack) {
		e.push(ctx)
	}
	nd := &e.stack[ctx.Step]
	e.running = nd.base + e.cost(nd, nd.idx)
	if !e.open(nd) {
		ctx.NoResume()
	}
	return e.orders[nd.off+nd.idx]
}

// push records the fresh node for ctx, whose first choice, the canonical
// one, costs nothing.
func (e *engine) push(ctx vthread.Context) {
	off := len(e.orders)
	e.orders = sched.AppendCanonicalOrder(e.orders, ctx.Enabled, ctx.Last, ctx.NumThreads)
	n := len(e.orders) - off
	costly := ctx.Last != sched.NoThread && (e.model == CostDelays || e.model == CostPreemptions && ctx.LastEnabled)
	e.stack = append(e.stack, node{off: off, n: n, hi: n - 1, base: e.running, costly: costly})
}

// cost is the incremental cost of nd's choice j under the engine's model.
func (e *engine) cost(nd *node, j int) int {
	switch {
	case !nd.costly:
		return 0
	case e.model == CostPreemptions:
		return min(j, 1)
	}
	return j
}

// open reports whether nd has an untried choice within the bound. Costs do
// not fall along the order, so the next choice decides.
func (e *engine) open(nd *node) bool {
	return nd.idx < nd.hi && (e.model == CostNone || nd.base+e.cost(nd, nd.idx+1) <= e.bound)
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
	for d := len(e.stack) - 1; d >= 0; d-- {
		nd := &e.stack[d]
		if e.open(nd) {
			nd.idx++
			e.shared = d
			return true
		}
		// An untried choice that is not open is over the bound.
		e.pruned = e.pruned || nd.idx < nd.hi
		e.orders, e.stack = e.orders[:nd.off], e.stack[:d]
	}
	return false
}
