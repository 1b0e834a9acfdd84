package explore

import (
	"fmt"
	"strings"
	"time"

	"sctbench/internal/corpus"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// Technique enumerates the exploration techniques of the study.
type Technique int

const (
	// DFS is unbounded depth-first search.
	DFS Technique = iota
	// IPB is iterative preemption bounding.
	IPB
	// IDB is iterative delay bounding.
	IDB
	// Rand is the naive random scheduler (10,000 independent runs).
	Rand
	// DPOR is unbounded depth-first search with source-set style dynamic
	// partial-order reduction plus sleep sets (the §7 future-work lever).
	// Like the paper's methodology, POR is kept out of the bounded IPB/IDB
	// phases; DPOR accelerates the unbounded search only.
	DPOR
)

// String returns the technique's name as used in the paper.
func (t Technique) String() string {
	switch t {
	case DFS:
		return "DFS"
	case IPB:
		return "IPB"
	case IDB:
		return "IDB"
	case Rand:
		return "Rand"
	case DPOR:
		return "DPOR"
	}
	return "unknown"
}

// ParseTechnique is the inverse of Technique.String, ignoring case.
func ParseTechnique(name string) (Technique, bool) {
	for t := DFS; t <= DPOR; t++ {
		if strings.EqualFold(name, t.String()) {
			return t, true
		}
	}
	return 0, false
}

// Config parameterises an exploration.
type Config struct {
	// Program is the program under test. It must be deterministic modulo
	// scheduling (§2: "the only source of nondeterminism is the scheduler").
	// With Workers > 1 the same Program value is invoked concurrently from
	// several worker goroutines (one World each), so its body must confine
	// all state to the invocation: create shared objects through the Thread
	// API inside the body, never capture mutable variables across calls.
	Program vthread.Runnable
	// Visible restricts which shared variables are scheduling points (the
	// promotion set produced by the race-detection phase). Nil promotes
	// everything.
	Visible func(key string) bool
	// BoundsCheck enables the modelled out-of-bounds detector.
	BoundsCheck bool
	// MaxSteps bounds one execution's visible operations (0 = default).
	MaxSteps int
	// Limit is the terminal-schedule budget; the study uses 10,000.
	// Zero means DefaultLimit.
	Limit int
	// Seed seeds the random scheduler (Rand only).
	Seed uint64
	// MaxBound caps iterative bounding (safety net; 0 means DefaultMaxBound).
	MaxBound int
	// MaxExecutions caps the total number of executions an iterative search
	// may spend, counting re-executions of already-counted schedules at
	// higher bounds (0 means DefaultMaxExecutions). Purely a guard rail;
	// the study's benchmarks stay far below it.
	MaxExecutions int
	// Debug forwards the engine switch to every executor this exploration
	// creates (vthread.Options.Debug). The zero value is correct for every
	// production use; the flat-vs-reference equivalence tests set
	// NoFlatEngine to prove results are bit-identical on either engine.
	Debug vthread.Debug
	// Workers is the number of worker goroutines exploring the schedule
	// space (0 or 1 = sequential). DFS/IPB/IDB partition the search tree
	// into prefix-pinned subtrees with work-stealing, and IPB/IDB overlap
	// bound k+1 speculatively behind bound k; Rand shards its independent
	// runs. Every Result field but the work tallies (Executions, TotalSteps,
	// AbortedExecutions) is identical to the sequential search's — whether
	// the search completes, Limit truncates it, or it is killed and resumed
	// — because Limit is applied only by the canonical merge; a truncated
	// parallel search pays for that with up to about Workers × Limit extra
	// executions, which those tallies report. DPOR alone is verdict-level.
	// See internal/explore/parallel.go for the contract.
	Workers int
	// Deadline, when nonzero, stops the search at that wall-clock time
	// with Stopped = StopDeadline (and a checkpoint, when configured).
	Deadline time.Time
	// Interrupt, when non-nil, stops the search when it is closed — the
	// CLIs close it from their signal handlers. The search notices at its
	// next per-execution poll and stops with Stopped = StopInterrupted.
	Interrupt <-chan struct{}
	// CheckpointPath, when nonempty, is where the search writes its
	// frontier checkpoint on interruption or deadline (atomically:
	// temp file + rename). See Resume.
	CheckpointPath string
	// CheckpointEvery additionally writes a checkpoint every N executions
	// (0 = only at interruption/deadline).
	CheckpointEvery int
	// Meta is CLI context carried verbatim into checkpoint files.
	Meta CheckpointMeta
	// Corpus, together with ProgramHash, turns on replay-first
	// exploration: stored witnesses are replayed before any technique runs
	// (bug still present — reported after a handful of executions; gone —
	// the stale entry is dropped), stored frontier prefixes seed probe
	// executions next, and everything the search then finds is minimised
	// and written back. See corpus.go in this package.
	Corpus *corpus.Store
	// ProgramHash is the program's content hash (vthread.ProgramHash) —
	// the key under which Corpus stores this program's schedules. Empty
	// disables the corpus even when Corpus is non-nil.
	ProgramHash string

	// frontier, when non-nil, receives the search's unexplored frontier
	// prefixes at exit (truncated sequential runs only). Set by the
	// replay-first wrapper to harvest seeds for the corpus.
	frontier *[]sched.Schedule
}

// Defaults for Config fields left zero.
const (
	DefaultLimit         = 10000
	DefaultMaxBound      = 32
	DefaultMaxExecutions = 2_000_000
)

func (c Config) withDefaults() Config {
	if c.Limit == 0 {
		c.Limit = DefaultLimit
	}
	if c.MaxBound == 0 {
		c.MaxBound = DefaultMaxBound
	}
	if c.MaxExecutions == 0 {
		c.MaxExecutions = DefaultMaxExecutions
	}
	return c
}

// Result is the outcome of one exploration: the per-technique cell block of
// a Table 3 row.
type Result struct {
	// Technique that produced this result.
	Technique Technique
	// BugFound reports whether any explored schedule exposed the bug.
	BugFound bool
	// Failure is the first failure observed (nil if none).
	Failure *vthread.Failure
	// Witness is the schedule of the first buggy execution (nil if none).
	Witness sched.Schedule
	// Bound is the smallest preemption/delay bound that exposed the bug, or
	// the bound reached (but possibly not completed) when no bug was found.
	// Zero and meaningless for DFS and Rand.
	Bound int
	// SchedulesToFirstBug counts terminal schedules explored up to and
	// including the first buggy one (0 when no bug found).
	SchedulesToFirstBug int
	// Schedules is the total number of terminal schedules counted. For IPB
	// and IDB a schedule is counted at the iteration whose bound equals its
	// exact cost, so re-executions at higher bounds are not double-counted.
	// For Rand it is the number of runs (duplicates possible).
	Schedules int
	// NewSchedules counts schedules with exactly Bound preemptions/delays
	// (IPB/IDB only).
	NewSchedules int
	// BuggySchedules counts the explored schedules that exposed the bug.
	BuggySchedules int
	// Complete reports that the whole schedule space was explored.
	Complete bool
	// LimitHit reports that the schedule limit stopped the search.
	LimitHit bool
	// MaxEnabled and MaxSchedPoints are the per-benchmark statistics of
	// Table 3: the maximum number of simultaneously enabled threads and the
	// maximum number of scheduling points with >1 enabled thread, over all
	// executions of this exploration.
	MaxEnabled     int
	MaxSchedPoints int
	// Threads is the maximum number of threads created in any execution.
	Threads int
	// Executions counts actual program executions, including bounded-search
	// re-executions (an implementation metric, not a paper column).
	Executions int
	// AbortedExecutions counts executions the engine cut short via the
	// chooser-abort path (vthread.Context.Abort) because their remainder
	// was provably redundant. Nonzero only for the pruning engines
	// (sleep-set DFS and DPOR); aborted runs are included in Executions.
	AbortedExecutions int
	// BranchesPruned counts enabled-sibling choices the pruning engines
	// retired unexplored (sleep sets proved them redundant, or no race ever
	// required them in a backtrack set). Each pruned branch is a whole
	// subtree DFS would have walked, so this understates the saving.
	BranchesPruned int
	// TotalSteps is the summed trace length over all executions — the work
	// metric the abort path reduces (a redundancy detected at step k saves
	// the schedule's tail beyond k).
	TotalSteps int64
	// Stopped says why the search ended: StopCompleted (zero) for a
	// natural end, StopLimit when a budget truncated it, StopDeadline or
	// StopInterrupted when it was cut short externally. A truncated
	// (deadline/interrupted) result is a valid partial result, and — with
	// Config.CheckpointPath set — is accompanied by a checkpoint Resume
	// can continue from.
	Stopped StopReason
	// WorkerPanics counts parallel-pool workers that panicked mid-unit
	// (outside the substrate's own containment); each such unit's counts
	// are forfeited, the pool drains the rest, and Complete is withheld.
	// WorkerPanicMsg is the first such panic's message.
	WorkerPanics   int
	WorkerPanicMsg string
	// CheckpointError records a failed (non-injected) checkpoint write;
	// the search itself continues — losing a checkpoint never loses the
	// run.
	CheckpointError string
	// CorpusReplays and CorpusProbes count the replay-first phase's
	// executions (stored-witness replays and prefix-seeded probes; both
	// are included in Executions). CorpusHit reports the bug was
	// reproduced straight from a stored witness, so the search itself
	// never ran. CorpusError records a failed corpus read-back or
	// write-back; like a failed checkpoint it never fails the run.
	CorpusReplays int
	CorpusProbes  int
	CorpusHit     bool
	CorpusError   string
}

// Run explores the program with the given technique. With Config.Corpus
// and Config.ProgramHash set, the run is replay-first: stored witnesses
// and prefixes go first and the findings are written back (see corpus.go).
func Run(t Technique, cfg Config) *Result {
	if cfg.Corpus != nil && cfg.ProgramHash != "" {
		return runReplayFirst(t, cfg)
	}
	return runCold(t, cfg)
}

// runCold dispatches the technique with no corpus involvement.
func runCold(t Technique, cfg Config) *Result {
	switch t {
	case DFS:
		return RunDFS(cfg)
	case IPB:
		return RunIterative(cfg, CostPreemptions)
	case IDB:
		return RunIterative(cfg, CostDelays)
	case Rand:
		return RunRand(cfg)
	case DPOR:
		return RunDPOR(cfg)
	}
	panic(fmt.Sprintf("explore: unknown technique %d", int(t)))
}

// observe folds an execution's statistics into the result.
func (r *Result) observe(out *vthread.Outcome) {
	if out.MaxEnabled > r.MaxEnabled {
		r.MaxEnabled = out.MaxEnabled
	}
	if out.SchedPoints > r.MaxSchedPoints {
		r.MaxSchedPoints = out.SchedPoints
	}
	if out.Threads > r.Threads {
		r.Threads = out.Threads
	}
	r.TotalSteps += int64(len(out.Trace))
	if out.Aborted {
		r.AbortedExecutions++
	}
}

// recordBug records the first bug.
func (r *Result) recordBug(out *vthread.Outcome) {
	r.BuggySchedules++
	if !r.BugFound {
		r.BugFound = true
		r.Failure = out.Failure
		r.Witness = out.Trace.Clone()
		r.SchedulesToFirstBug = r.Schedules
	}
}

// runSequentialTree drives a single-pass engine (DFS, sleep-set DFS,
// DPOR) over the whole tree to exhaustion or the schedule limit — the
// sequential counterpart of runPasses, shared so that limit
// accounting and observation live in exactly one place per driver shape.
// The engine must be positioned to run: fresh, or restored from a
// checkpoint (which is only ever taken at the loop top, post-backtrack).
func runSequentialTree(cfg Config, r *Result, eng searcher) *Result {
	ex := newExecutor(cfg)
	defer ex.Close()
	eng.setExec(ex)
	ctl := newStopCtl(cfg)
	ckw := newCkWriter(cfg)
	for {
		if reason, stop := ctl.poll(); stop {
			r.Stopped = reason
			writeCheckpoint(cfg, r, treeCheckpoint(cfg, r, eng))
			break
		}
		if ckw.due(eng.execCount()) {
			if writeCheckpoint(cfg, r, treeCheckpoint(cfg, r, eng)) {
				// Simulated death mid-write: stop as if killed, leaving
				// whatever the crash left on disk.
				r.Stopped = StopInterrupted
				break
			}
			ckw.last = eng.execCount()
		}
		out := eng.runOnce()
		r.observe(out)
		// Step-limited and chooser-aborted runs are not terminal schedules.
		if eng.counts(out) {
			r.Schedules++
			if out.Buggy() {
				r.recordBug(out)
			}
		}
		if r.Schedules >= cfg.Limit {
			r.LimitHit = true
			r.Stopped = StopLimit
			break
		}
		if !eng.backtrack() {
			r.Complete = true
			break
		}
	}
	r.Executions = eng.execCount()
	r.BranchesPruned += eng.prunedBranches()
	captureFrontier(cfg, r, eng)
	return r
}

// treeCheckpoint snapshots a single-pass sequential search. The partial
// Result is serialized as-is: the fields the driver fills only at exit
// (Executions, BranchesPruned) stay zero in the file and are reconstructed
// from the engine's own counters when the resumed run exits.
func treeCheckpoint(cfg Config, r *Result, eng searcher) *Checkpoint {
	ck := newCheckpoint(cfg, eng.techName(), r)
	ck.Engine = eng.snapshot()
	return ck
}

// RunDFS performs unbounded depth-first search up to the schedule limit.
// Matching the paper's methodology, the search does not stop at the first
// bug: it continues to the limit (or exhaustion) so the fraction of buggy
// schedules can be reported. With cfg.Workers > 1 the tree is explored by
// a work-stealing worker pool with identical resulting counts.
func RunDFS(cfg Config) *Result {
	if cfg.Workers > 1 {
		return runParallel(cfg, DFS)
	}
	cfg = cfg.withDefaults()
	return runSequentialTree(cfg, &Result{Technique: DFS}, newEngine(cfg, CostNone, 0))
}

// RunIterative performs iterative schedule bounding (IPB for
// CostPreemptions, IDB for CostDelays): all schedules with cost 0 are
// explored, then cost 1, and so on. A terminal schedule is counted at the
// iteration whose bound equals its exact cost, which makes NewSchedules
// "schedules with exactly bound preemptions/delays" and keeps totals free
// of double counting, as in the paper's Table 3. When a bug is found the
// current bound is still enumerated to completion (within the limit), so
// worst-case schedule counts (Figure 4) are well defined.
func RunIterative(cfg Config, model CostModel) *Result {
	if model != CostPreemptions && model != CostDelays {
		panic("explore: RunIterative needs a bounding cost model")
	}
	tech := IPB
	if model == CostDelays {
		tech = IDB
	}
	if cfg.Workers > 1 {
		return runParallel(cfg, tech)
	}
	cfg = cfg.withDefaults()
	return iterSequential(cfg, model, &Result{Technique: tech}, 0, 0, nil)
}

// iterSequential drives the bound sweeps of a sequential iterative search
// from startBound upward. A non-nil eng resumes mid-bound: it must be
// positioned to run at startBound, with r carrying the partial sweep and
// priorExecs the executions committed by earlier bounds.
func iterSequential(cfg Config, model CostModel, r *Result, startBound, priorExecs int, eng *engine) *Result {
	executions := priorExecs
	ex := newExecutor(cfg) // one pool of recycled threads across all bounds
	defer ex.Close()
	ctl := newStopCtl(cfg)
	ckw := newCkWriter(cfg)

	for bound := startBound; bound <= cfg.MaxBound; bound++ {
		r.Bound = bound
		if eng == nil {
			r.NewSchedules = 0
			eng = newEngine(cfg, model, bound)
		}
		eng.exec = ex
		boundDone := false
		stopped := false
		for {
			if reason, stop := ctl.poll(); stop {
				r.Stopped = reason
				writeCheckpoint(cfg, r, iterCheckpoint(cfg, r, bound, executions, eng))
				stopped = true
				break
			}
			if ckw.due(executions + eng.executions) {
				if writeCheckpoint(cfg, r, iterCheckpoint(cfg, r, bound, executions, eng)) {
					r.Stopped = StopInterrupted
					stopped = true
					break
				}
				ckw.last = executions + eng.executions
			}
			out := eng.runOnce()
			r.observe(out)
			if !out.StepLimitHit {
				cost := out.PC
				if model == CostDelays {
					cost = out.DC
				}
				if cost == bound {
					r.Schedules++
					r.NewSchedules++
					if out.Buggy() {
						r.recordBug(out)
					}
				}
			}
			if r.Schedules >= cfg.Limit {
				r.LimitHit = true
				r.Stopped = StopLimit
				break
			}
			if executions+eng.executions >= cfg.MaxExecutions {
				r.LimitHit = true
				r.Stopped = StopLimit
				break
			}
			if !eng.backtrack() {
				boundDone = true
				break
			}
		}
		executions += eng.executions
		pruned := eng.pruned
		if stopped || r.LimitHit {
			captureFrontier(cfg, r, eng)
			eng = nil
			break
		}
		eng = nil
		if boundDone && !pruned {
			// Nothing was pruned anywhere: every schedule costs at most
			// bound, so the space is fully explored.
			r.Complete = true
			break
		}
		if r.BugFound {
			// The bound that exposed the bug has been fully enumerated;
			// stop, as in the paper's methodology (§5).
			break
		}
	}
	r.Executions = executions
	return r
}

// iterCheckpoint snapshots a sequential iterative search mid-bound.
func iterCheckpoint(cfg Config, r *Result, bound, priorExecs int, eng *engine) *Checkpoint {
	ck := newCheckpoint(cfg, eng.techName(), r)
	ck.Bound = bound
	ck.BoundExecs = priorExecs
	ck.Engine = eng.snapshot()
	return ck
}

// RunRand performs Limit independent runs under the naive random scheduler.
// No state is kept between runs, so duplicate schedules are possible and
// the search never "completes" (§3 of the paper).
func RunRand(cfg Config) *Result {
	cfg = cfg.withDefaults()
	if cfg.Workers > 1 {
		return runRandParallel(cfg, &Result{Technique: Rand}, 0)
	}
	return randSequential(cfg, &Result{Technique: Rand}, 0)
}

// randSequential sweeps run indices [start, Limit). Rand's checkpoint is
// just the next run index: every run i is independently seeded from
// (cfg.Seed, i), so no scheduler state needs to survive an interruption.
func randSequential(cfg Config, r *Result, start int) *Result {
	ex := newExecutor(cfg)
	defer ex.Close()
	ctl := newStopCtl(cfg)
	ckw := newCkWriter(cfg)
	for i := start; i < cfg.Limit; i++ {
		if reason, stop := ctl.poll(); stop {
			r.Stopped = reason
			writeCheckpoint(cfg, r, randCheckpoint(cfg, r, i))
			r.Executions = i
			return r
		}
		if ckw.due(i) {
			if writeCheckpoint(cfg, r, randCheckpoint(cfg, r, i)) {
				r.Stopped = StopInterrupted
				r.Executions = i
				return r
			}
			ckw.last = i
		}
		out := randRun(ex, cfg, i)
		r.observe(out)
		if out.StepLimitHit {
			continue
		}
		r.Schedules++
		if out.Buggy() {
			r.recordBug(out)
		}
	}
	r.Executions = cfg.Limit
	r.LimitHit = true
	r.Stopped = StopLimit
	return r
}

// randCheckpoint snapshots a Rand sweep: the watermark below which every
// run's contribution is already folded into r.
func randCheckpoint(cfg Config, r *Result, nextRun int) *Checkpoint {
	ck := newCheckpoint(cfg, "Rand", r)
	ck.NextRun = nextRun
	return ck
}
