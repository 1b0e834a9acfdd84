// Package simplify implements counterexample-trace simplification: given a
// buggy schedule, it searches for an equivalent witness with fewer
// preemptive context switches. §1 of the paper highlights exactly this as
// a benefit of schedule bounding ("a trace with a small number of
// preemptions is likely to be easy to understand", citing the trace
// simplification literature [Jalbert & Sen, FSE'10; Huang & Zhang,
// SAS'11]); this package brings the same benefit to witnesses found by
// unbounded or random search, whose traces are typically preemption-heavy.
//
// The algorithm is greedy block merging: the schedule is a sequence of
// maximal same-thread blocks; for each pair of blocks of the same thread,
// try the schedule with the later block moved up against the earlier one,
// validate the candidate by deterministic replay (it must remain feasible
// and still expose a failure), and keep it if the preemption count
// dropped. Iterate to a fixpoint.
package simplify

import (
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// Options configures a minimisation.
type Options struct {
	// Visible/BoundsCheck/MaxSteps must match the exploration that
	// produced the witness: a schedule is only meaningful under the same
	// visibility.
	Visible     func(string) bool
	BoundsCheck bool
	MaxSteps    int
	// MaxRounds caps fixpoint iterations (0 = 16).
	MaxRounds int
}

// Result reports the minimised witness.
type Result struct {
	// Schedule is the simplified witness (possibly the original).
	Schedule sched.Schedule
	// PC and DC are the simplified witness's costs; OriginalPC is the
	// input's preemption count, for reporting the reduction.
	PC, DC, OriginalPC int
	// Failure is the bug the simplified witness exposes.
	Failure *vthread.Failure
	// Replays counts candidate validations performed.
	Replays int
	// Rounds counts fixpoint iterations.
	Rounds int
}

type block struct {
	thread sched.ThreadID
	n      int
}

func toBlocks(s sched.Schedule) []block {
	var out []block
	for _, t := range s {
		if len(out) > 0 && out[len(out)-1].thread == t {
			out[len(out)-1].n++
			continue
		}
		out = append(out, block{t, 1})
	}
	return out
}

func fromBlocks(bs []block) sched.Schedule {
	var out sched.Schedule
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			out = append(out, b.thread)
		}
	}
	return out
}

// replayCosts replays candidate on the shared executor and reports
// (feasible && buggy, outcome). The outcome is valid until the next replay;
// callers clone what they keep.
func replayCosts(ex *vthread.Executor, program vthread.Runnable, candidate sched.Schedule) (*vthread.Outcome, bool) {
	rep := vthread.NewReplay(candidate)
	out := ex.RunWith(rep, nil, program)
	if rep.Failed() || !out.Buggy() {
		return out, false
	}
	return out, true
}

// Minimize returns a witness for newProgram's bug with a preemption count
// no larger than the input's. newProgram must build a fresh program
// instance per call (replays re-execute it repeatedly).
func Minimize(newProgram func() vthread.Runnable, witness sched.Schedule, opts Options) *Result {
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 16
	}
	res := &Result{Schedule: witness.Clone()}
	ex := vthread.NewExecutor(vthread.Options{
		Visible:     opts.Visible,
		BoundsCheck: opts.BoundsCheck,
		MaxSteps:    opts.MaxSteps,
	})
	defer ex.Close()

	base, ok := replayCosts(ex, newProgram(), res.Schedule)
	if !ok {
		// Not a reproducible witness under these options: return as-is.
		res.PC, res.DC = -1, -1
		return res
	}
	// The replayed outcome's trace may be shorter than the input (a
	// failure truncates); adopt it — truncation alone often simplifies.
	res.Schedule = base.Trace.Clone()
	res.PC, res.DC = base.PC, base.DC
	res.OriginalPC = base.PC
	res.Failure = base.Failure.Clone()

	if base.SelectPoints > 0 {
		// The witness interleaves select case-decision entries with thread
		// entries (vthread doc, "Case-decision points"). The block model
		// below would merge or relocate a case entry away from its
		// selecting thread's entry, so every candidate it builds replays
		// a case index as a thread choice at the wrong position and fails
		// validation. Return the replay-truncated witness rather than
		// burning replays on candidates that can never validate;
		// case-aware block merging is future work.
		return res
	}

	for round := 0; round < maxRounds; round++ {
		res.Rounds = round + 1
		improved := false
		blocks := toBlocks(res.Schedule)
		for i := 0; i < len(blocks) && !improved; i++ {
			for j := i + 1; j < len(blocks); j++ {
				if blocks[j].thread != blocks[i].thread {
					continue
				}
				// Candidate: pull block j up against block i.
				cand := make([]block, 0, len(blocks))
				cand = append(cand, blocks[:i+1]...)
				cand[len(cand)-1].n += blocks[j].n
				cand = append(cand, blocks[i+1:j]...)
				cand = append(cand, blocks[j+1:]...)
				candidate := fromBlocks(cand)
				res.Replays++
				out, ok := replayCosts(ex, newProgram(), candidate)
				if !ok || out.PC >= res.PC {
					continue
				}
				res.Schedule = out.Trace.Clone()
				res.PC, res.DC = out.PC, out.DC
				res.Failure = out.Failure.Clone()
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return res
}
