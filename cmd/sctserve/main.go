// Command sctserve runs one exploration job across processes: a
// coordinator that partitions the schedule space into leased units — split
// further whenever a worker runs out of work — and workers that execute
// them. A fully completed distributed run is
// bit-identical to the sequential in-process exploration for DFS/IPB/IDB
// and verdict-identical for DPOR; dead, hung or partitioned workers are
// survived by lease expiry and re-dispatch.
//
// Coordinator:
//
//	sctserve -bench CS.account_bad [-technique idb|ipb|dfs|dpor]
//	         [-limit 10000] [-seed 1] [-listen 127.0.0.1:0] [-addr-file f]
//	         [-lease-ttl 2s] [-local-workers N] [-norace]
//	         [-checkpoint job.ckpt] [-resume job.ckpt] [-max-wall 30s] [-csv]
//
// Worker (any number, started before or after the coordinator):
//
//	sctserve -worker -connect http://127.0.0.1:PORT [-name w1]
//
// Watcher (progress lines on stderr while a job runs elsewhere):
//
//	sctserve -watch -connect http://127.0.0.1:PORT [-watch-interval 500ms]
//
// Baseline (the sequential run the distributed one must match):
//
//	sctserve -local -bench CS.account_bad -technique dfs -csv
//
// SIGINT/SIGTERM drains gracefully: workers park their in-flight
// frontiers and hand them back, the coordinator writes a resumable job
// checkpoint (also readable by `sctrun -resume`), and the exit-status
// contract is preserved: 0 clean (no bug), 1 bug found, 2 truncated
// without a bug, 3 usage or internal error.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/cli"
	"sctbench/internal/dist"
	"sctbench/internal/explore"
	"sctbench/internal/race"
	"sctbench/internal/report"
)

// The exit-status contract, by its local names.
const (
	exitClean     = cli.ExitClean
	exitBug       = cli.ExitBug
	exitTruncated = cli.ExitTruncated
	exitError     = cli.ExitError
)

func main() { cli.Main(run) }

// run is the testable entry point.
func run(args []string, interrupt <-chan struct{}, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sctserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	worker := fs.Bool("worker", false, "run as a worker instead of a coordinator")
	watch := fs.Bool("watch", false, "poll the coordinator's /v1/status and print progress lines to stderr (-connect required)")
	watchInterval := fs.Duration("watch-interval", 500*time.Millisecond, "poll interval for -watch")
	connect := fs.String("connect", "", "coordinator URL, e.g. http://127.0.0.1:4077 (worker and watch modes)")
	wname := fs.String("name", "", "worker name shown in coordinator status (default w-<pid>)")
	local := fs.Bool("local", false, "run the job sequentially in-process — the baseline a distributed run must match")
	name := fs.String("bench", "", "benchmark name (see sctrun -list)")
	tech := fs.String("technique", "idb", "dfs | ipb | idb | dpor")
	limit := fs.Int("limit", explore.DefaultLimit, "terminal-schedule limit")
	seed := fs.Uint64("seed", 1, "random seed")
	noRace := fs.Bool("norace", false, "skip the race-detection phase (every access visible)")
	listen := fs.String("listen", "127.0.0.1:0", "coordinator listen address")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file (port discovery with :0)")
	leaseTTL := fs.Duration("lease-ttl", 2*time.Second, "unit lease TTL; a silent worker's unit is re-dispatched after this")
	localWorkers := fs.Int("local-workers", 0, "also run N in-process workers over loopback")
	ckPath := fs.String("checkpoint", "", "write the resumable job checkpoint here (drain, and after every unit)")
	resumePath := fs.String("resume", "", "resume a job from this checkpoint file")
	maxWall := fs.Duration("max-wall", 0, "wall-clock budget for the job (0 = none)")
	csvOut := fs.Bool("csv", false, "print the verdict row as CSV on stdout")
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	if *watch {
		return runWatch(*connect, *watchInterval, interrupt, stderr)
	}
	if *worker {
		return runWorker(*connect, *wname, interrupt, stderr)
	}

	var deadline time.Time
	if *maxWall > 0 {
		deadline = time.Now().Add(*maxWall)
	}

	// Rand's runs are independent: there is no tree to partition.
	t, ok := explore.ParseTechnique(*tech)
	if !ok || t == explore.Rand {
		fmt.Fprintf(stderr, "unknown technique %q (want dfs, ipb, idb or dpor)\n", *tech)
		return exitError
	}

	if *local {
		return runLocal(*name, t, *limit, *seed, *noRace, deadline, interrupt,
			*ckPath, *csvOut, stdout, stderr)
	}

	var c *dist.Coordinator
	var benchName, techName string
	if *resumePath != "" {
		ck, err := explore.LoadCheckpoint(*resumePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitError
		}
		b := bench.ByName(ck.Benchmark)
		if b == nil {
			fmt.Fprintf(stderr, "checkpoint benchmark %q is not registered\n", ck.Benchmark)
			return exitError
		}
		out := *ckPath
		if out == "" {
			out = *resumePath // a re-drained resume checkpoints over its input
		}
		c, err = dist.ResumeCoordinator(ck, dist.JobConfig{
			Bench: b, Deadline: deadline, Interrupt: interrupt,
			LeaseTTL: *leaseTTL, CheckpointPath: out,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitError
		}
		benchName, techName = ck.Benchmark, ck.Technique
		fmt.Fprintf(stderr, "resuming %s %s: %d schedules done\n", ck.Technique, ck.Benchmark, ck.Result.Schedules)
	} else {
		b := bench.ByName(*name)
		if b == nil {
			fmt.Fprintf(stderr, "unknown benchmark %q (use sctrun -list)\n", *name)
			return exitError
		}
		racy := racePhase(b, *seed, *noRace, stderr)
		var err error
		c, err = dist.NewCoordinator(dist.JobConfig{
			Bench: b, Technique: t, Limit: *limit, Seed: *seed,
			Racy: racy, NoRace: *noRace, Deadline: deadline, Interrupt: interrupt,
			LeaseTTL: *leaseTTL, CheckpointPath: *ckPath,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitError
		}
		benchName, techName = b.Name, t.String()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "listen:", err)
		return exitError
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(stderr, "addr-file:", err)
			_ = l.Close()
			return exitError
		}
	}
	fmt.Fprintf(stderr, "sctserve: coordinating %s %s on %s\n", techName, benchName, l.Addr())
	c.Serve(l)
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < *localWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := dist.RunWorker(dist.WorkerConfig{
				Addr: "http://" + c.Addr(), Name: fmt.Sprintf("local-%d", i),
				Interrupt: interrupt,
			})
			if err != nil {
				fmt.Fprintf(stderr, "local worker %d: %v\n", i, err)
			}
		}(i)
	}
	res, err := c.Wait()
	wg.Wait()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	return report1(benchName, techName, res, *ckPath, *csvOut, stdout, stderr)
}

// runWorker is worker mode: connect, execute leased units until the job
// ends, exit clean.
func runWorker(connect, name string, interrupt <-chan struct{}, stderr io.Writer) int {
	if connect == "" {
		fmt.Fprintln(stderr, "-worker needs -connect http://HOST:PORT")
		return exitError
	}
	if name == "" {
		name = fmt.Sprintf("w-%d", os.Getpid())
	}
	if err := dist.RunWorker(dist.WorkerConfig{Addr: connect, Name: name, Interrupt: interrupt}); err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}
	fmt.Fprintf(stderr, "worker %s: done\n", name)
	return exitClean
}

// runLocal runs the job sequentially in one process — no server, no
// leases — producing the baseline artifact a distributed run of the same
// job must reproduce bit-identically (DFS/IPB/IDB, completed runs).
func runLocal(name string, t explore.Technique, limit int, seed uint64, noRace bool,
	deadline time.Time, interrupt <-chan struct{}, ckPath string, csvOut bool,
	stdout, stderr io.Writer) int {
	b := bench.ByName(name)
	if b == nil {
		fmt.Fprintf(stderr, "unknown benchmark %q (use sctrun -list)\n", name)
		return exitError
	}
	racy := racePhase(b, seed, noRace, stderr)
	var visible func(string) bool
	if !noRace {
		visible = race.Promoted(racy)
	}
	res := explore.Run(t, explore.Config{
		Program: b.New(), Visible: visible, BoundsCheck: b.BoundsCheck,
		MaxSteps: b.MaxSteps, Limit: limit, Seed: seed, Workers: 1,
		Deadline: deadline, Interrupt: interrupt, CheckpointPath: ckPath,
		Meta: explore.CheckpointMeta{Benchmark: b.Name, Racy: racy, NoRace: noRace},
	})
	return report1(b.Name, t.String(), res, ckPath, csvOut, stdout, stderr)
}

// racePhase runs the race-detection phase, unless disabled, and returns the
// variables it promotes.
func racePhase(b *bench.Benchmark, seed uint64, noRace bool, stderr io.Writer) []string {
	if noRace {
		return nil
	}
	racy := race.RunPhase(race.PhaseConfig{
		Program: b.New(), Seed: seed, MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
	}).Racy
	fmt.Fprintf(stderr, "race phase: %d racy variable(s): %s\n", len(racy), strings.Join(racy, ", "))
	return racy
}

// report1 prints one job result and maps it to the exit-status contract.
func report1(benchName, tech string, res *explore.Result, ckPath string, csvOut bool,
	stdout, stderr io.Writer) int {
	if res.WorkerPanics > 0 {
		fmt.Fprintf(stderr, "warning: %d exploration worker(s) panicked (%s); "+
			"schedule counts are lower bounds and completeness is not claimed\n",
			res.WorkerPanics, res.WorkerPanicMsg)
	}
	truncated := res.Stopped == explore.StopDeadline || res.Stopped == explore.StopInterrupted
	if truncated {
		where := "no checkpoint configured (use -checkpoint)"
		if ckPath != "" {
			where = "checkpoint saved to " + ckPath
		}
		fmt.Fprintf(stderr, "job truncated (%s) after %d schedules; %s\n", res.Stopped, res.Schedules, where)
	}
	if res.BugFound {
		fmt.Fprintf(stderr, "%s: bug at bound %d after %d schedules (%d total, %d buggy): %v\n",
			tech, res.Bound, res.SchedulesToFirstBug, res.Schedules, res.BuggySchedules, res.Failure)
	} else {
		fmt.Fprintf(stderr, "%s: no bug within %d schedules (bound reached %d, complete=%v)\n",
			tech, res.Schedules, res.Bound, res.Complete)
	}
	if csvOut {
		fmt.Fprint(stdout, report.JobCSVHeader)
		fmt.Fprint(stdout, report.JobCSVRow(benchName, tech, res))
	}
	switch {
	case res.BugFound:
		return exitBug
	case truncated:
		return exitTruncated
	default:
		return exitClean
	}
}
