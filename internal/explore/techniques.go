package explore

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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
	// Workers is the number of worker goroutines exploring the schedule
	// space (0 or 1 = sequential: the search runs on the caller's goroutine,
	// through the same unit step, merge and verdict the scheduler runs).
	// DFS/IPB/IDB/DPOR partition the search tree into prefix-pinned subtrees,
	// split further whenever a worker runs out of work, and IPB/IDB overlap
	// bound k+1 speculatively behind bound k; Rand shards its independent
	// runs. Every Result field but the work tallies (Executions, TotalSteps,
	// AbortedExecutions) is identical to the sequential search's — whether
	// the search completes, Limit truncates it, or it is killed and resumed
	// — because Limit is applied only by the canonical merge; a truncated
	// parallel search pays for that with up to about Workers × Limit extra
	// executions, which those tallies report. DPOR alone is verdict-level.
	// See internal/explore/parallel.go and scheduler.go for the contract.
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
	// (0 = only at interruption/deadline), for every technique at every
	// worker count: the sequential driver between two executions, the unit
	// scheduler once the active pass's owners have parked, and Rand every N
	// folded runs.
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
	// WorkerPanics counts partitioned units whose worker panicked mid-unit
	// (outside the substrate's own containment); each such unit's counts
	// are forfeited, the other units run on, and Complete is withheld.
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
	case Rand:
		return RunRand(cfg)
	case DFS, IPB, IDB, DPOR:
		return runTree(cfg, t)
	}
	panic(fmt.Sprintf("explore: unknown technique %d", int(t)))
}

// runTree runs a tree technique — every one but Rand — where cfg.Workers
// puts it: a worker count selects the driver, never the code that explores,
// tallies, merges and judges (exploreUnit, MergeUnitStates, Commit).
func runTree(cfg Config, tech Technique) *Result {
	cfg = cfg.withDefaults()
	r := &Result{Technique: tech}
	if cfg.Workers > 1 {
		s, _ := NewScheduler(cfg, tech) // never Rand: the callers name the technique
		return s.Run()
	}
	root, _ := newSearcher(cfg, tech, 0)
	return runSequential(cfg, r, 0, root, nil)
}

// runSequential is the tree techniques' driver on the caller's goroutine:
// what Workers <= 1 selects, where Workers > 1 and internal/dist put the unit
// scheduler. A pass — the DFS, sleep-set or DPOR tree, or one bound of an
// IPB/IDB sweep — is one positioned root unit, explored by exploreUnit,
// merged by MergeUnitStates and judged by PassMerge.Commit, so limit
// accounting, first-bug capture, the statistics fold and the per-pass verdict
// are the very code the scheduler runs; what is this driver's own is
// only when it stops (the stop control), when it checkpoints (CheckpointEvery
// pacing, and the sequential file: sequentialCheckpoint) and the
// sweep's MaxExecutions guard. eng and res are the root unit of the pass at
// bound — fresh (res nil), or as Resume restored it, res holding what the
// pass had tallied — and r what earlier passes committed.
//
// A panic out of an execution (chooser or engine misuse, which the substrate
// rethrows to its caller by contract; checkCost's invariants) is not
// contained here as a worker loop contains it: it reaches the caller with its
// value. The executor is then left unclosed — it may hold the wedged run,
// and Close would wait for it.
func runSequential(cfg Config, r *Result, bound int, eng searcher, res *UnitResultState) *Result {
	if res == nil {
		res = &UnitResultState{}
	}
	sweep := r.Technique == IPB || r.Technique == IDB
	end := PassEnd{Iterative: sweep, Bound: bound, MaxBound: bound, Counted: r.Schedules, Limit: cfg.Limit}
	if sweep {
		end.MaxBound = cfg.MaxBound
	}
	ex := newExecutor(cfg) // one pool of recycled threads across all bounds
	ctl := newStopCtl(cfg)
	ckw := newCkWriter(cfg)
	units := []*UnitResultState{res}
	checkpoint := func() (crashed bool) {
		return writeCheckpoint(cfg, r, sequentialCheckpoint(cfg, r, end, eng, res))
	}
	driver := unitDriver{
		poll: func() UnitAction {
			if _, stop := ctl.poll(); stop {
				return UnitPark
			}
			if n := r.Executions + res.Executions; ckw.due(n) {
				if checkpoint() {
					ctl.crash()
					return UnitPark
				}
				ckw.last = n
			}
			return UnitContinue
		},
		budget: func() int { return end.Limit - end.Counted },
		executed: func(searcher) bool {
			// Post-execution check with >=: the execution that exhausts the
			// guard still runs (and counts). Single passes have no guard.
			end.GuardHit = sweep && r.Executions+res.Executions >= cfg.MaxExecutions
			return !end.GuardHit
		},
	}
	for {
		eng.setExec(ex)
		if exploreUnit(eng, true, res, driver) == unitParked {
			end.Stopped, _ = ctl.reason()
			if !ctl.crashed.Load() {
				checkpoint()
			}
		}
		m := MergeUnitStates(units, end.Limit-end.Counted)
		if m.Commit(r, end) {
			break
		}
		end.Counted += m.Schedules
		end.Bound++
		eng, _ = newSearcher(cfg, r.Technique, end.Bound) // a sweep: always partitionable
		*res = UnitResultState{BuggyRuns: res.BuggyRuns[:0], StatMarks: res.StatMarks[:0]}
	}
	ex.Close()
	captureFrontier(cfg, r, eng)
	return r
}

// RunDFS performs unbounded depth-first search up to the schedule limit.
// Matching the paper's methodology, the search does not stop at the first
// bug: it continues to the limit (or exhaustion) so the fraction of buggy
// schedules can be reported. With cfg.Workers > 1 the tree is explored by
// the unit scheduler's workers with identical resulting counts.
func RunDFS(cfg Config) *Result { return runTree(cfg, DFS) }

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
	if model == CostDelays {
		return runTree(cfg, IDB)
	}
	return runTree(cfg, IPB)
}

// RunRand performs Limit independent runs under the naive random scheduler.
// No state is kept between runs, so duplicate schedules are possible and
// the search never "completes" (§3 of the paper).
func RunRand(cfg Config) *Result {
	cfg = cfg.withDefaults()
	return runRand(cfg, &Result{Technique: Rand}, 0)
}

// randRec is what one Rand run contributes to the fold.
type randRec struct {
	RunStats
	steps           int
	terminal, buggy bool
	// failure and witness are kept only while no lower run is known buggy.
	failure *vthread.Failure
	witness sched.Schedule
}

// runRand is the one Rand sweep, over run indices [start, Limit): an atomic
// index dispenser hands them out to cfg.Workers sweepers, the caller's
// goroutine being the first. Run i is seeded from (cfg.Seed, i) alone
// (randRun), so no scheduler state crosses runs or survives an interruption,
// and the fold is by run index: a finished run waits in pending until every
// lower run has been folded, which makes r — witness included — the same at
// every worker count. r is therefore always exact up
// to the watermark (the first run not folded), and that is what a checkpoint
// holds, periodic (CheckpointEvery counts folded runs) or at a stop; runs a
// sweeper finished beyond the watermark re-run on resume, which is harmless
// because every run is a pure function of its index.
func runRand(cfg Config, r *Result, start int) *Result {
	n := cfg.Limit
	ctl := newStopCtl(cfg)
	ckw := newCkWriter(cfg)
	var next atomic.Int64
	next.Store(int64(start))

	var mu sync.Mutex // guards r, watermark, pending and ckw
	watermark := start
	var pending map[int]randRec
	fold := func(rc randRec) {
		watermark++
		rc.foldInto(r)
		r.TotalSteps += int64(rc.steps)
		if !rc.terminal {
			return
		}
		r.Schedules++
		if rc.buggy {
			r.BuggySchedules++
			if !r.BugFound {
				r.BugFound = true
				r.Failure, r.Witness = rc.failure, rc.witness
				r.SchedulesToFirstBug = r.Schedules
			}
		}
	}
	sweep := func() {
		ex := newExecutor(cfg)
		for {
			if _, stop := ctl.poll(); stop {
				break
			}
			i := int(next.Add(1)) - 1
			if randDispensed != nil {
				randDispensed(i)
			}
			if i >= n {
				break
			}
			out := randRun(ex, cfg, i)
			rc := randRec{steps: len(out.Trace), terminal: !out.StepLimitHit, buggy: out.Buggy()}
			rc.observe(out)
			mu.Lock()
			if rc.buggy && !r.BugFound {
				rc.failure, rc.witness = out.Failure.Clone(), out.Trace.Clone()
			}
			if i != watermark {
				if pending == nil {
					pending = make(map[int]randRec)
				}
				pending[i] = rc
			} else {
				// Fold run i, then every run it held back. The periodic
				// checkpoint is owed by the count of folded runs, so it is
				// asked after each fold: a late run 0 releases all the others
				// in this one drain, and asking only at its end, where the
				// watermark is Limit, would write none.
				for ok := true; ok; rc, ok = pending[watermark] {
					delete(pending, watermark) // run i itself was never pending
					fold(rc)
					if watermark < n && ckw.due(watermark) && !ctl.crashed.Load() {
						if writeCheckpoint(cfg, r, randCheckpoint(cfg, r, watermark)) {
							ctl.crash()
						}
						ckw.last = watermark
					}
				}
			}
			mu.Unlock()
		}
		ex.Close()
	}
	var wg sync.WaitGroup
	for w := 1; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep()
		}()
	}
	sweep() // the caller's goroutine is the first sweeper, and with Workers <= 1 the only one
	wg.Wait()

	if reason, stopped := ctl.reason(); stopped {
		r.Stopped = reason
		if !ctl.crashed.Load() {
			writeCheckpoint(cfg, r, randCheckpoint(cfg, r, watermark))
		}
		r.Executions = watermark
		return r
	}
	r.Executions = n
	r.LimitHit = true
	r.Stopped = StopLimit
	return r
}

// randDispensed, nil outside tests, is called with every run index a Rand
// sweeper draws, the past-the-end one it quits on included: the seam
// checkpoint_test.go fixes the order runs finish in with.
var randDispensed func(i int)

// randRun executes run i of a Rand sweep on the caller's executor: the
// single definition of the per-run seed formula.
func randRun(ex *vthread.Executor, cfg Config, i int) *vthread.Outcome {
	return ex.RunWith(vthread.NewRandom(cfg.Seed+uint64(i)*0x9e3779b9), nil, cfg.Program)
}

// randCheckpoint snapshots a Rand sweep: the watermark below which every
// run's contribution is already folded into r.
func randCheckpoint(cfg Config, r *Result, nextRun int) *Checkpoint {
	ck := newCheckpoint(cfg, "Rand", r)
	ck.NextRun = nextRun
	return ck
}
