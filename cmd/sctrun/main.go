// Command sctrun explores a single registered benchmark (the 52 SCTBench
// rows or the GoIdiom extension family) with one technique and prints what
// it finds, including the witness schedule and an optional replay with a
// per-step trace — the debugging workflow the study's tools support
// (reproducing a bug by forcing its schedule).
//
// Usage:
//
//	sctrun -bench CS.account_bad [-technique idb|ipb|dfs|dpor|rand|maple|sleepset]
//	       [-limit 10000] [-seed 1] [-workers N] [-norace] [-replay]
//	       [-minimize] [-save witness.json] [-load witness.json] [-log]
//	       [-checkpoint ck.json] [-resume ck.json] [-max-wall 30s]
//	       [-list]
//
// A run cut short by SIGINT/SIGTERM or -max-wall flushes a frontier
// checkpoint to the -checkpoint path; -resume continues it with identical
// final results. Exit status: 0 clean (no bug), 1 bug found, 2 truncated
// without a bug, 3 usage or internal error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/cli"
	"sctbench/internal/explore"
	"sctbench/internal/mapleidiom"
	"sctbench/internal/race"
	"sctbench/internal/sched"
	"sctbench/internal/simplify"
	"sctbench/internal/vthread"
)

// The exit-status contract, by its local names.
const (
	exitClean     = cli.ExitClean
	exitBug       = cli.ExitBug
	exitTruncated = cli.ExitTruncated
	exitError     = cli.ExitError
)

func main() { cli.Main(run) }

// run is the testable entry point: parses args, runs, and returns the
// exit status. interrupt may be nil (no signal handling, as in tests that
// drive truncation via -max-wall instead).
func run(args []string, interrupt <-chan struct{}, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sctrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("bench", "", "benchmark name (see -list)")
	tech := fs.String("technique", "idb", "ipb | idb | dfs | dpor | rand | maple | sleepset")
	limit := fs.Int("limit", explore.DefaultLimit, "terminal-schedule limit")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"schedule-exploration worker goroutines (1 = sequential; applies to ipb/idb/dfs/dpor/rand)")
	noRace := fs.Bool("norace", false, "skip the race-detection phase (every access visible)")
	replay := fs.Bool("replay", false, "replay the witness schedule and print it")
	minimize := fs.Bool("minimize", false, "simplify the witness (merge blocks, reduce preemptions)")
	savePath := fs.String("save", "", "write the witness to this JSON file")
	loadPath := fs.String("load", "", "replay a witness JSON file instead of exploring")
	logTrace := fs.Bool("log", false, "print a per-event trace when replaying")
	ckPath := fs.String("checkpoint", "", "write a frontier checkpoint here when the search is interrupted or times out")
	resumePath := fs.String("resume", "", "resume the search from this checkpoint file")
	maxWall := fs.Duration("max-wall", 0, "wall-clock budget for the search (0 = none)")
	list := fs.Bool("list", false, "list all registered benchmarks (SCTBench + goidiom + gotime) and exit")
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	if *list {
		for _, b := range bench.All() {
			fmt.Fprintf(stdout, "%-28s %-8s %2d threads  %-9s  %s\n", b.Name, b.Suite, b.Threads, b.BugKind, b.Desc)
		}
		return exitClean
	}

	var deadline time.Time
	if *maxWall > 0 {
		deadline = time.Now().Add(*maxWall)
	}

	if *resumePath != "" {
		return resumeRun(*resumePath, *ckPath, *name, *workers, deadline, interrupt,
			*replay, *minimize, *savePath, *logTrace, stdout, stderr)
	}

	b := bench.ByName(*name)
	if b == nil {
		fmt.Fprintf(stderr, "unknown benchmark %q (use -list)\n", *name)
		return exitError
	}

	if *loadPath != "" {
		return replayWitnessFile(b, *loadPath, *logTrace, stdout, stderr)
	}

	var visible func(string) bool
	var racyVars []string
	if !*noRace {
		phase := race.RunPhase(race.PhaseConfig{
			Program: b.New(), Seed: *seed, MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
		})
		fmt.Fprintf(stdout, "race phase: %d racy variable(s): %s\n", len(phase.Racy), strings.Join(phase.Racy, ", "))
		racyVars = phase.Racy
		visible = race.Promoted(phase.Racy)
	}

	if strings.EqualFold(*tech, "maple") {
		res := mapleidiom.Run(mapleidiom.Config{
			Program: b.New, Visible: visible, BoundsCheck: b.BoundsCheck,
			MaxSteps: b.MaxSteps, Seed: *seed,
		})
		if !res.BugFound {
			fmt.Fprintf(stdout, "MapleAlg: no bug in %d schedules (%d candidate idioms)\n", res.Schedules, res.Candidates)
			return exitClean
		}
		fmt.Fprintf(stdout, "MapleAlg: bug after %d schedules: %v\n", res.SchedulesToFirstBug, res.Failure)
		finishWitness(b, visible, racyVars, res.Witness, "maple", *replay, *minimize, *savePath, *logTrace, stdout, stderr)
		return exitBug
	}

	cfg := explore.Config{
		Program: b.New(), Visible: visible, BoundsCheck: b.BoundsCheck,
		MaxSteps: b.MaxSteps, Limit: *limit, Seed: *seed, Workers: *workers,
		Interrupt: interrupt, Deadline: deadline, CheckpointPath: *ckPath,
		Meta: explore.CheckpointMeta{Benchmark: b.Name, Racy: racyVars, NoRace: *noRace},
	}

	// maple, above, and sleepset are the two names that are not an
	// explore.Technique.
	var res *explore.Result
	techName := sleepSet
	if strings.EqualFold(*tech, sleepSet) {
		res = explore.RunSleepSetDFS(cfg)
	} else if t, ok := explore.ParseTechnique(*tech); ok {
		res, techName = explore.Run(t, cfg), t.String()
	} else {
		fmt.Fprintf(stderr, "unknown technique %q\n", *tech)
		return exitError
	}
	return reportResult(b, visible, racyVars, techName, res, *ckPath,
		*replay, *minimize, *savePath, *logTrace, stdout, stderr)
}

// sleepSet is sleep-set DFS's name on the command line, in checkpoints and in
// saved witnesses.
const sleepSet = "sleepset"

// resumeRun continues an exploration from a frontier checkpoint. The
// benchmark and the promoted variable set come from the checkpoint itself
// (what the interrupted run measured); -bench may be given as a
// cross-check but cannot redirect the checkpoint to another program.
func resumeRun(path, ckPath, name string, workers int, deadline time.Time, interrupt <-chan struct{},
	replay, minimize bool, savePath string, logTrace bool, stdout, stderr io.Writer) int {
	ck, err := explore.LoadCheckpoint(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	if ck.Benchmark == "" {
		fmt.Fprintln(stderr, "checkpoint does not name its benchmark; cannot resume")
		return exitError
	}
	if name != "" && name != ck.Benchmark {
		fmt.Fprintf(stderr, "checkpoint is for %s, not %s\n", ck.Benchmark, name)
		return exitError
	}
	b := bench.ByName(ck.Benchmark)
	if b == nil {
		fmt.Fprintf(stderr, "checkpoint benchmark %q is not registered\n", ck.Benchmark)
		return exitError
	}
	var visible func(string) bool
	if !ck.NoRace {
		visible = race.Promoted(ck.Racy)
	}
	if ckPath == "" {
		ckPath = path // a re-interrupted resume checkpoints over its input
	}
	fmt.Fprintf(stdout, "resuming %s %s: %d schedules done\n", ck.Technique, ck.Benchmark, ck.Result.Schedules)
	res, err := explore.Resume(ck, explore.Config{
		Program: b.New(), Visible: visible, BoundsCheck: b.BoundsCheck,
		MaxSteps: b.MaxSteps, Workers: workers,
		Interrupt: interrupt, Deadline: deadline, CheckpointPath: ckPath,
		Meta: explore.CheckpointMeta{Benchmark: ck.Benchmark, Racy: ck.Racy, NoRace: ck.NoRace},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	return reportResult(b, visible, ck.Racy, ck.Technique, res, ckPath,
		replay, minimize, savePath, logTrace, stdout, stderr)
}

// warnWorkerPanics surfaces contained exploration-worker panics on
// stderr: the run's counts are then lower bounds (the panicked unit's
// schedules were forfeited) and completeness is never claimed, so the
// user must not read the summary as full coverage.
func warnWorkerPanics(res *explore.Result, stderr io.Writer) {
	if res.WorkerPanics == 0 {
		return
	}
	fmt.Fprintf(stderr, "warning: %d exploration worker(s) panicked (%s); "+
		"schedule counts are lower bounds and completeness is not claimed\n",
		res.WorkerPanics, res.WorkerPanicMsg)
}

// truncatedStatus prints the truncation notice and returns whether the
// run was cut short (deadline or interrupt).
func truncatedStatus(res *explore.Result, ckPath string, stdout io.Writer) bool {
	if res.Stopped != explore.StopDeadline && res.Stopped != explore.StopInterrupted {
		return false
	}
	where := "no checkpoint configured (use -checkpoint)"
	if ckPath != "" {
		where = "checkpoint saved to " + ckPath
	}
	fmt.Fprintf(stdout, "search truncated (%s) after %d schedules; %s\n", res.Stopped, res.Schedules, where)
	return true
}

// reportResult prints an exploration summary — sleep-set DFS has a phrasing
// of its own — and maps it to an exit status: a found bug outranks
// truncation.
func reportResult(b *bench.Benchmark, visible func(string) bool, racy []string, tech string,
	res *explore.Result, ckPath string, replay, minimize bool, savePath string, logTrace bool,
	stdout, stderr io.Writer) int {
	warnWorkerPanics(res, stderr)
	truncated := truncatedStatus(res, ckPath, stdout)
	if tech == explore.DPOR.String() {
		fmt.Fprintf(stdout, "DPOR: %d executions (%d aborted as redundant, %d branches pruned, %d total steps)\n",
			res.Executions, res.AbortedExecutions, res.BranchesPruned, res.TotalSteps)
	}
	switch {
	case !res.BugFound && tech == sleepSet:
		fmt.Fprintf(stdout, "sleep-set DFS: no bug within %d schedules (complete=%v, %d of %d executions aborted as redundant)\n",
			res.Schedules, res.Complete, res.AbortedExecutions, res.Executions)
	case !res.BugFound:
		fmt.Fprintf(stdout, "%s: no bug within %d schedules (bound reached %d, complete=%v)\n",
			tech, res.Schedules, res.Bound, res.Complete)
	case tech == sleepSet:
		fmt.Fprintf(stdout, "sleep-set DFS: bug after %d schedules (%d executions, %d aborted as redundant): %v\n",
			res.SchedulesToFirstBug, res.Executions, res.AbortedExecutions, res.Failure)
	default:
		fmt.Fprintf(stdout, "%s: bug at bound %d after %d schedules (%d total within bound, %d buggy)\n",
			tech, res.Bound, res.SchedulesToFirstBug, res.Schedules, res.BuggySchedules)
		fmt.Fprintf(stdout, "failure: %v\n", res.Failure)
		fmt.Fprintf(stdout, "witness: %v\n", res.Witness)
	}
	if res.BugFound {
		finishWitness(b, visible, racy, res.Witness, tech, replay, minimize, savePath, logTrace, stdout, stderr)
		return exitBug
	}
	if truncated {
		return exitTruncated
	}
	return exitClean
}

// finishWitness applies the post-discovery workflow: optional
// minimisation, optional save, optional replay with trace logging. All
// replays run on one shared Executor.
func finishWitness(b *bench.Benchmark, visible func(string) bool, racy []string,
	witness sched.Schedule, technique string, replay, minimize bool, savePath string, logTrace bool,
	stdout, stderr io.Writer) {
	ex := newReplayExecutor(b, visible)
	defer ex.Close()
	if minimize {
		res := simplify.Minimize(b.New, witness, simplify.Options{
			Visible: visible, BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps,
		})
		if res.Failure != nil {
			fmt.Fprintf(stdout, "minimized: PC %d -> %d (%d replays): %v\n",
				res.OriginalPC, res.PC, res.Replays, res.Schedule)
			witness = res.Schedule
		}
	}
	if savePath != "" {
		out, _ := replayOutcome(ex, b, witness, nil)
		wf := &sched.WitnessFile{
			Benchmark: b.Name, Technique: technique, Schedule: witness,
			Racy: racy, PC: out.PC, DC: out.DC,
		}
		if out.Failure != nil {
			wf.Failure = out.Failure.Error()
		}
		data, err := wf.Encode()
		if err == nil {
			err = os.WriteFile(savePath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "save:", err)
		} else {
			fmt.Fprintf(stdout, "witness saved to %s\n", savePath)
		}
	}
	if replay {
		var log *vthread.TraceLogger
		if logTrace {
			log = vthread.NewTraceLogger()
		}
		out, _ := replayOutcome(ex, b, witness, log)
		fmt.Fprintf(stdout, "replay: %v (PC=%d DC=%d, %d steps)\n", out.Failure, out.PC, out.DC, len(out.Trace))
		if log != nil {
			fmt.Fprint(stdout, log.String())
		}
	}
}

// replayWitnessFile loads a saved witness and replays it. Reproducing the
// recorded bug is the expected outcome and maps to the bug exit status.
func replayWitnessFile(b *bench.Benchmark, path string, logTrace bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "load:", err)
		return exitError
	}
	wf, err := sched.DecodeWitness(data)
	if err != nil {
		fmt.Fprintln(stderr, "load:", err)
		return exitError
	}
	if wf.Benchmark != "" && wf.Benchmark != b.Name {
		fmt.Fprintf(stderr, "witness is for %s, not %s\n", wf.Benchmark, b.Name)
		return exitError
	}
	var log *vthread.TraceLogger
	if logTrace {
		log = vthread.NewTraceLogger()
	}
	ex := newReplayExecutor(b, race.Promoted(wf.Racy))
	defer ex.Close()
	out, ok := replayOutcome(ex, b, wf.Schedule, log)
	if !ok {
		fmt.Fprintln(stdout, "replay diverged: witness does not fit this benchmark build")
		return exitError
	}
	fmt.Fprintf(stdout, "replay: %v (PC=%d DC=%d, %d steps)\n", out.Failure, out.PC, out.DC, len(out.Trace))
	if log != nil {
		fmt.Fprint(stdout, log.String())
	}
	if out.Failure != nil {
		return exitBug
	}
	return exitClean
}

// newReplayExecutor builds the reusable execution context the replay
// workflow shares across its runs.
func newReplayExecutor(b *bench.Benchmark, visible func(string) bool) *vthread.Executor {
	return vthread.NewExecutor(vthread.Options{
		Visible: visible, BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps,
	})
}

// replayOutcome replays a schedule on ex with optional logging. The
// outcome is valid until ex's next run.
func replayOutcome(ex *vthread.Executor, b *bench.Benchmark, s sched.Schedule, log *vthread.TraceLogger) (*vthread.Outcome, bool) {
	rep := vthread.NewReplay(s)
	var sink vthread.EventSink
	if log != nil {
		sink = log
	}
	out := ex.RunWith(rep, sink, b.New())
	return out, !rep.Failed()
}
