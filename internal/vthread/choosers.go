package vthread

import (
	"math/rand/v2"
	"slices"

	"sctbench/internal/sched"
)

// RoundRobin returns the deterministic scheduler of §2: non-preemptive, and
// when the current thread blocks or exits it picks the next enabled thread
// in thread-creation order, round-robin. Executing a program under this
// chooser yields the unique zero-delay terminal schedule.
func RoundRobin() Chooser { return roundRobin{} }

type roundRobin struct{}

// Choose implements Chooser.
func (roundRobin) Choose(ctx Context) ThreadID {
	if ctx.LastEnabled {
		return ctx.Last
	}
	return sched.CanonicalFirst(ctx.Enabled, ctx.Last, ctx.NumThreads)
}

// NewRandom returns the naive random scheduler of the study (Rand): at
// every scheduling point one enabled thread is chosen uniformly at random.
// The schedule nondeterminism is fully controlled, so unlike schedule
// fuzzing this yields truly pseudo-random schedules; no history is kept
// across executions.
func NewRandom(seed uint64) Chooser {
	return &randomChooser{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

type randomChooser struct{ rng *rand.Rand }

// Choose implements Chooser.
func (c *randomChooser) Choose(ctx Context) ThreadID {
	return ctx.Enabled[c.rng.IntN(len(ctx.Enabled))]
}

// Replay follows a recorded schedule step by step. If the recorded thread
// is not enabled at some step, or the execution outlives the recording, the
// replay is infeasible: Failed() reports it and the chooser falls back to
// round-robin so the execution still terminates.
type Replay struct {
	schedule sched.Schedule
	failed   bool
	failStep int
}

// NewReplay creates a replay chooser for the recorded schedule.
func NewReplay(schedule sched.Schedule) *Replay {
	return &Replay{schedule: schedule, failStep: -1}
}

// Choose implements Chooser.
func (r *Replay) Choose(ctx Context) ThreadID {
	if ctx.Step < len(r.schedule) {
		want := r.schedule[ctx.Step]
		if _, ok := slices.BinarySearch(ctx.Enabled, want); ok {
			return want
		}
	}
	if !r.failed {
		r.failed = true
		r.failStep = ctx.Step
	}
	if ctx.LastEnabled {
		return ctx.Last
	}
	return sched.CanonicalFirst(ctx.Enabled, ctx.Last, ctx.NumThreads)
}

// Failed reports whether the replay diverged from the recording.
func (r *Replay) Failed() bool { return r.failed }

// FailStep returns the step at which replay diverged, or -1.
func (r *Replay) FailStep() int { return r.failStep }
