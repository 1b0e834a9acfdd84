// Package mapleidiom implements a faithful simplification of the default
// Maple algorithm [Yu et al., OOPSLA'12], the non-systematic
// coverage-driven technique the study compares against (MapleAlg in Table
// 3). The original performs profiling runs that record inter-thread
// memory-dependency patterns ("interleaving idioms"), predicts untested
// idioms, then performs active runs that steer the scheduler to force each
// untested idiom, giving up via heuristics.
//
// Our simplification keeps that structure at variable granularity (the
// same granularity our race-promotion phase uses): a profiled idiom is an
// ordered inter-thread dependency (key, firstIsWrite, secondIsWrite); the
// candidates are the flipped orders never observed while profiling; one
// active run per candidate prioritises the flip's first access and holds
// back threads about to perform its second access, with a give-up budget.
package mapleidiom

import (
	"sort"

	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// idiom is an ordered inter-thread dependency on one variable: an access
// of kind first (write/read) by some thread, later followed by an access
// of kind second by a different thread, with at least one write.
type idiom struct {
	key           string
	first, second bool // true = write
}

// Config parameterises a MapleAlg run.
type Config struct {
	// Program builds a fresh program instance per execution.
	Program func() vthread.Runnable
	// Visible is the promoted-variable predicate shared with the SCT
	// phases (§5: the racy-instruction information is common input to all
	// techniques).
	Visible func(string) bool
	// BoundsCheck and MaxSteps forward to the substrate.
	BoundsCheck bool
	MaxSteps    int
	// Seed drives the randomised profiling runs.
	Seed uint64
	// ProfileRuns is the number of profiling executions (0 = 3: one
	// round-robin plus two randomised, mirroring Maple's handful of
	// profile runs).
	ProfileRuns int
	// GiveUp is the per-execution budget of scheduling points the active
	// scheduler may spend holding a thread back before abandoning the
	// candidate (0 = 64), mirroring Maple's infeasibility heuristics.
	GiveUp int
}

// Result summarises a MapleAlg run.
type Result struct {
	// BugFound reports whether any profiling or active run failed.
	BugFound bool
	// Failure is the first failure observed.
	Failure *vthread.Failure
	// Witness is the schedule of the first failing run.
	Witness sched.Schedule
	// Schedules counts executions performed (profile + active), the number
	// Table 3 reports for MapleAlg.
	Schedules int
	// SchedulesToFirstBug is the execution index of the first failure.
	SchedulesToFirstBug int
	// Candidates is the number of untested idioms the active phase tried.
	Candidates int
}

// profiler records observed inter-thread dependencies.
type profiler struct {
	lastWriter map[string]vthread.ThreadID
	lastReader map[string]vthread.ThreadID
	seen       map[idiom]bool
}

var _ vthread.EventSink = (*profiler)(nil)

func newProfiler() *profiler {
	return &profiler{
		lastWriter: make(map[string]vthread.ThreadID),
		lastReader: make(map[string]vthread.ThreadID),
		seen:       make(map[idiom]bool),
	}
}

func (p *profiler) Access(t vthread.ThreadID, key string, write bool) {
	if w, ok := p.lastWriter[key]; ok && w != t {
		p.seen[idiom{key, true, write}] = true
	}
	if write {
		if r, ok := p.lastReader[key]; ok && r != t {
			p.seen[idiom{key, false, true}] = true
		}
		p.lastWriter[key] = t
	} else {
		p.lastReader[key] = t
	}
}

func (p *profiler) Acquire(vthread.ThreadID, string)       {}
func (p *profiler) Release(vthread.ThreadID, string)       {}
func (p *profiler) Spawned(parent, child vthread.ThreadID) {}

// activeChooser steers one execution to force candidate c: before the
// candidate's first access has happened, threads about to perform the
// candidate's *second* access are held back (if any alternative exists)
// and threads about to perform the first access are prioritised. After
// the first access executes, the second is prioritised. A give-up budget
// bounds the interference.
type activeChooser struct {
	c      idiom
	fired  bool // first access has executed
	budget int
	// allowedBuf is reused across scheduling points for the held-back set.
	allowedBuf []vthread.ThreadID
}

func (a *activeChooser) Choose(ctx vthread.Context) vthread.ThreadID {
	if a.budget > 0 {
		if pick, ok := a.steer(ctx); ok {
			return pick
		}
	}
	// Default: non-preemptive round-robin.
	if ctx.LastEnabled {
		return ctx.Last
	}
	return sched.CanonicalFirst(ctx.Enabled, ctx.Last, ctx.NumThreads)
}

func (a *activeChooser) steer(ctx vthread.Context) (vthread.ThreadID, bool) {
	if ctx.SelectOf != vthread.NoThread {
		// Case-decision point: Enabled holds select case indices, not
		// thread ids, so access steering does not apply. Fall back to the
		// default pick (canonical first = lowest ready case).
		return 0, false
	}
	want := func(t vthread.ThreadID, write bool) bool {
		pi := ctx.PendingOf(t)
		return pi.IsAccess && pi.Key == a.c.key && pi.IsWrite == write
	}
	if !a.fired {
		// Prioritise the first access of the flipped idiom.
		for _, t := range ctx.Enabled {
			if want(t, a.c.first) {
				a.fired = true
				a.budget--
				return t, true
			}
		}
		// Hold back threads poised to perform the second access.
		allowed := a.allowedBuf[:0]
		for _, t := range ctx.Enabled {
			if !want(t, a.c.second) {
				allowed = append(allowed, t)
			}
		}
		a.allowedBuf = allowed
		if len(allowed) > 0 && len(allowed) < len(ctx.Enabled) {
			a.budget--
			if ctx.LastEnabled {
				for _, t := range allowed {
					if t == ctx.Last {
						return t, true
					}
				}
			}
			return sched.CanonicalFirst(allowed, ctx.Last, ctx.NumThreads), true
		}
		return 0, false
	}
	// First access done: prioritise the second.
	for _, t := range ctx.Enabled {
		if want(t, a.c.second) {
			return t, true
		}
	}
	return 0, false
}

// Run executes the MapleAlg pipeline: profile, derive untested flipped
// idioms, then one active run per candidate.
func Run(cfg Config) *Result {
	profileRuns := cfg.ProfileRuns
	if profileRuns == 0 {
		profileRuns = 3
	}
	giveUp := cfg.GiveUp
	if giveUp == 0 {
		giveUp = 64
	}
	res := &Result{}
	prof := newProfiler()
	ex := vthread.NewExecutor(vthread.Options{
		Visible:     cfg.Visible,
		BoundsCheck: cfg.BoundsCheck,
		MaxSteps:    cfg.MaxSteps,
	})
	defer ex.Close()

	record := func(out *vthread.Outcome) bool {
		res.Schedules++
		if out.Buggy() && !res.BugFound {
			res.BugFound = true
			res.Failure = out.Failure.Clone()
			res.Witness = out.Trace.Clone()
			res.SchedulesToFirstBug = res.Schedules
		}
		return out.Buggy()
	}

	// Profiling phase: one deterministic run plus randomised runs, all
	// observed by the dependency profiler. Maple itself stops as soon as a
	// run fails, and so do we.
	for i := 0; i < profileRuns; i++ {
		var chooser vthread.Chooser = vthread.RoundRobin()
		if i > 0 {
			chooser = vthread.NewRandom(cfg.Seed + uint64(i))
		}
		prof.lastWriter = make(map[string]vthread.ThreadID)
		prof.lastReader = make(map[string]vthread.ThreadID)
		if record(ex.RunWith(chooser, prof, cfg.Program())) {
			return res
		}
	}

	// Candidate derivation: flip every observed idiom; drop flips that
	// were themselves observed (already tested) and read–read pairs.
	var candidates []idiom
	for id := range prof.seen {
		flip := idiom{id.key, id.second, id.first}
		if !flip.first && !flip.second {
			continue
		}
		if !prof.seen[flip] {
			candidates = append(candidates, flip)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if a.key != b.key {
			return a.key < b.key
		}
		if a.first != b.first {
			return a.first
		}
		return a.second && !b.second
	})
	res.Candidates = len(candidates)

	// Active phase: one steered execution per untested idiom.
	for _, c := range candidates {
		if record(ex.RunWith(&activeChooser{c: c, budget: giveUp}, nil, cfg.Program())) {
			return res
		}
	}
	return res
}
