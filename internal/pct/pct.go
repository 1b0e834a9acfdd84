// Package pct implements the PCT randomized priority scheduler
// [Burckhardt et al., ASPLOS'10], the related-work technique of §7 of the
// paper, as an extension strategy for ablation benchmarks: it is not part
// of the Table 3 phases.
//
// PCT assigns each thread a random priority and always runs the
// highest-priority enabled thread; d−1 priority *change points* are chosen
// uniformly over the (estimated) execution length, and when execution
// reaches change point i the running thread's priority drops below every
// other. With d change points PCT finds every bug of depth d (d ordering
// constraints) with probability at least 1/(n·k^(d−1)) per run — unlike a
// naive random scheduler, whose per-step coin flips concentrate context
// switches uniformly rather than at a few deep points.
package pct

import (
	"math/rand/v2"

	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// Chooser is a single-execution PCT scheduler. Create a fresh one per run
// (priorities and change points are drawn once per execution).
type Chooser struct {
	rng *rand.Rand
	// base priorities per thread id; higher runs first. Assigned lazily as
	// threads appear so late-spawned threads get random priorities too.
	prio []int
	// changePoints[i] = step at which the i-th priority drop fires.
	changePoints []int
	// demotions counts the change points fired so far: the i-th demoted
	// thread gets priority -i, below every base priority and every earlier
	// demotion, so the later demotion runs last.
	demotions int
	steps     int
}

// New creates a PCT chooser with depth d (d−1 change points) over an
// execution of approximately k steps.
func New(seed uint64, d, k int) *Chooser {
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	c := &Chooser{rng: rng}
	for i := 0; i < d-1; i++ {
		if k > 0 {
			c.changePoints = append(c.changePoints, rng.IntN(k))
		}
	}
	return c
}

func (c *Chooser) prioOf(t sched.ThreadID) int {
	for len(c.prio) <= int(t) {
		// A fresh random base priority strictly below all previous ones on
		// average: draw from a shrinking range to randomise initial order.
		c.prio = append(c.prio, c.rng.IntN(1<<20))
	}
	return c.prio[t]
}

// Choose implements vthread.Chooser.
func (c *Chooser) Choose(ctx vthread.Context) sched.ThreadID {
	if ctx.SelectOf != vthread.NoThread {
		// Case-decision point of a multi-way select: Enabled holds ready
		// case indices, not thread ids, so the thread-keyed priorities do
		// not apply and no change point fires. Pick a ready case uniformly,
		// matching the Go runtime's own select semantics.
		return ctx.Enabled[c.rng.IntN(len(ctx.Enabled))]
	}
	step := c.steps
	c.steps++
	// Fire every change point scheduled for this step: each drops the
	// currently highest-priority enabled thread to the bottom.
	for _, cp := range c.changePoints {
		if cp == step {
			best := c.bestEnabled(ctx.Enabled) // grows c.prio to cover best
			c.demotions++
			c.prio[best] = -c.demotions
		}
	}
	return c.bestEnabled(ctx.Enabled)
}

func (c *Chooser) bestEnabled(enabled []sched.ThreadID) sched.ThreadID {
	best := enabled[0]
	bestP := c.prioOf(best)
	for _, t := range enabled[1:] {
		if p := c.prioOf(t); p > bestP {
			best, bestP = t, p
		}
	}
	return best
}

// Result summarises a PCT campaign.
type Result struct {
	// BugFound reports whether any run exposed a bug.
	BugFound bool
	// Failure is the first failure observed, and Witness its schedule.
	Failure *vthread.Failure
	Witness sched.Schedule
	// RunsToFirstBug is the 1-based index of the first failing run.
	RunsToFirstBug int
	// Runs is the number of executions performed.
	Runs int
	// BuggyRuns counts failing executions.
	BuggyRuns int
}

// Config parameterises a PCT campaign.
type Config struct {
	// Program builds a fresh program per run.
	Program func() vthread.Runnable
	// Runs is the number of independent executions (like Rand's budget).
	Runs int
	// Depth is the PCT bug depth d (number of ordering constraints).
	Depth int
	// Seed seeds priorities and change points.
	Seed uint64
	// Visible, BoundsCheck, MaxSteps forward to the substrate.
	Visible     func(string) bool
	BoundsCheck bool
	MaxSteps    int
}

// Run performs a PCT campaign: Runs independent executions, calibrating
// the change-point range with the previous run's observed length.
func Run(cfg Config) *Result {
	res := &Result{}
	k := 64 // initial length estimate; recalibrated after the first run
	ex := vthread.NewExecutor(vthread.Options{
		Visible:     cfg.Visible,
		BoundsCheck: cfg.BoundsCheck,
		MaxSteps:    cfg.MaxSteps,
	})
	defer ex.Close()
	for i := 0; i < cfg.Runs; i++ {
		ch := New(cfg.Seed+uint64(i)*0x9e3779b9, cfg.Depth, k)
		out := ex.RunWith(ch, nil, cfg.Program())
		res.Runs++
		if n := len(out.Trace); n > 0 {
			k = n
		}
		if out.Buggy() {
			res.BuggyRuns++
			if !res.BugFound {
				res.BugFound = true
				res.Failure, res.Witness = out.Failure.Clone(), out.Trace.Clone()
				res.RunsToFirstBug = res.Runs
			}
		}
	}
	return res
}
