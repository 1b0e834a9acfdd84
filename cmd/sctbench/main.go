// Command sctbench runs the empirical study of Thomson et al. (PPoPP'14)
// over every registered benchmark — the 52 SCTBench rows plus the GoIdiom
// extension family (channels, multi-way select, WaitGroup, Once) the
// original study could not express: the race-detection phase followed by
// IPB, IDB, DFS, Rand and optionally MapleAlg, then renders Table 2,
// Table 3, the Figure 2 Venn diagrams and the Figure 3/4 scatter data.
//
// Usage:
//
//	sctbench [-limit 10000] [-seed 1] [-bench regex] [-maple] [-dpor]
//	         [-table1] [-fig3csv path] [-fig4csv path] [-par N] [-workers N]
//	         [-checkpoint path] [-resume] [-max-wall 10m]
//	         [-cpuprofile path] [-memprofile path] [-v]
//
// A study cut short by SIGINT/SIGTERM or -max-wall keeps every cleanly
// completed benchmark row: the rows are saved to the -checkpoint path, the
// CSV artifacts are still written (covering the completed rows), and the
// process exits with status 2. Re-running with -resume skips the saved
// rows and re-runs only what is missing; since every row is deterministic
// given the seed, the resumed artifacts match an uninterrupted run's.
// Exit status: 0 clean (no bugs — unusual, the suite plants bugs), 1 at
// least one bug found (the expected outcome), 2 truncated, 3 usage or
// internal error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/cli"
	"sctbench/internal/corpus"
	"sctbench/internal/explore"
	"sctbench/internal/report"
	"sctbench/internal/study"
)

// The exit-status contract, by its local names.
const (
	exitClean     = cli.ExitClean
	exitBug       = cli.ExitBug
	exitTruncated = cli.ExitTruncated
	exitError     = cli.ExitError
)

func main() { cli.Main(run) }

// run is the testable entry point: parses args, runs the study, renders
// the reports, and returns the exit status.
func run(args []string, interrupt <-chan struct{}, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sctbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	limit := fs.Int("limit", explore.DefaultLimit, "terminal-schedule limit per technique")
	seed := fs.Uint64("seed", 1, "base random seed")
	benchRe := fs.String("bench", "", "regexp selecting benchmarks by name (default: all, goidiom and gotime families included)")
	withMaple := fs.Bool("maple", false, "also run the Maple-style idiom algorithm")
	withDPOR := fs.Bool("dpor", false,
		"also run DPOR (source-set dynamic partial-order reduction over unbounded DFS); "+
			"reduction factors land in the -table3csv output")
	table1 := fs.Bool("table1", false, "print Table 1 (suite overview) and exit")
	table3csv := fs.String("table3csv", "", "write the full Table 3 grid as CSV to this path")
	fig3csv := fs.String("fig3csv", "", "write Figure 3 scatter data CSV to this path")
	fig4csv := fs.String("fig4csv", "", "write Figure 4 scatter data CSV to this path")
	par := fs.Int("par", 0, "parallel benchmark evaluations (0 = GOMAXPROCS)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"schedule-exploration workers per technique run (1 = sequential)")
	corpusDir := fs.String("corpus", "",
		"schedule corpus directory (created if missing): explorations replay stored "+
			"witnesses before searching and write every fresh witness back")
	swarm := fs.Bool("swarm", false,
		"swarm mode: sweep technique x bound x seed over the selected benchmarks "+
			"and emit one consolidated CSV (see -swarm-seeds, -swarm-bounds, -swarmcsv)")
	swarmSeeds := fs.String("swarm-seeds", "1,2,3,4,5", "comma-separated seed axis for -swarm")
	swarmBounds := fs.String("swarm-bounds", "0",
		"comma-separated bound axis for -swarm's bounded techniques (0 = default cap)")
	swarmCSV := fs.String("swarmcsv", "", "write the swarm CSV to this path (default: stdout)")
	ckPath := fs.String("checkpoint", "", "save completed rows here when the study is interrupted or times out")
	resume := fs.Bool("resume", false, "skip rows already completed in the -checkpoint file")
	maxWall := fs.Duration("max-wall", 0, "wall-clock budget for the study (0 = none)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the study run to this path")
	memprofile := fs.String("memprofile", "", "write an allocation profile at exit to this path")
	verbose := fs.Bool("v", false, "progress output per phase")
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	if msg := study.Sanity(); msg != "" {
		fmt.Fprintln(stderr, "registry error:", msg)
		return exitError
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return exitError
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return exitError
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
		}()
	}

	if *table1 {
		fmt.Fprintf(stdout, "%-14s %-60s %5s %8s  %s\n", "Suite", "Benchmark types", "used", "skipped", "skip reason")
		for _, s := range bench.Table1() {
			fmt.Fprintf(stdout, "%-14s %-60s %5d %8d  %s\n", s.Name, s.Kinds, s.Used, s.Skipped, s.SkipReason)
		}
		return exitClean
	}

	benches := bench.All()
	if *benchRe != "" {
		re, err := regexp.Compile(*benchRe)
		if err != nil {
			fmt.Fprintln(stderr, "bad -bench regexp:", err)
			return exitError
		}
		var sel []*bench.Benchmark
		for _, b := range benches {
			if re.MatchString(b.Name) {
				sel = append(sel, b)
			}
		}
		benches = sel
	}
	if len(benches) == 0 {
		fmt.Fprintln(stderr, "no benchmarks selected")
		return exitError
	}

	var store *corpus.Store
	if *corpusDir != "" {
		var err error
		if store, err = corpus.Open(*corpusDir); err != nil {
			fmt.Fprintln(stderr, "corpus:", err)
			return exitError
		}
	}

	if *swarm {
		return runSwarm(benches, swarmOptions{
			seeds:     *swarmSeeds,
			bounds:    *swarmBounds,
			csvPath:   *swarmCSV,
			limit:     *limit,
			par:       *par,
			workers:   *workers,
			withDPOR:  *withDPOR,
			maxWall:   *maxWall,
			verbose:   *verbose,
			store:     store,
			interrupt: interrupt,
		}, stdout, stderr)
	}

	cfg := study.Config{
		Limit:          *limit,
		Seed:           *seed,
		WithMaple:      *withMaple,
		Parallelism:    *par,
		Workers:        *workers,
		Interrupt:      interrupt,
		CheckpointPath: *ckPath,
		Corpus:         store,
	}
	if *maxWall > 0 {
		cfg.Deadline = time.Now().Add(*maxWall)
	}
	if *withDPOR {
		// The default technique set plus DPOR; POR stays out of the
		// bounded phases per the paper's methodology (§5), so it rides as
		// an additional unbounded-search column.
		cfg.Techniques = []explore.Technique{explore.IPB, explore.IDB,
			explore.DFS, explore.Rand, explore.DPOR}
	}
	if *verbose {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	var prior *study.Checkpoint
	if *resume {
		if *ckPath == "" {
			fmt.Fprintln(stderr, "-resume needs -checkpoint to say where the saved rows are")
			return exitError
		}
		ck, err := study.LoadCheckpoint(*ckPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitError
		}
		prior = ck
		fmt.Fprintf(stderr, "resuming: %d rows carried over from %s\n", len(ck.Rows), *ckPath)
	}

	start := time.Now()
	rows, truncated, err := study.RunStudy(benches, cfg, prior)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitError
	}

	if truncated {
		where := "no checkpoint configured (use -checkpoint)"
		if *ckPath != "" {
			where = "rows saved to " + *ckPath
		}
		fmt.Fprintf(stderr, "study truncated: %d of %d rows completed; %s\n", len(rows), len(benches), where)
	}

	// Contained worker panics make the affected rows lower bounds, never
	// complete coverage — say so loudly rather than letting the tables
	// pass as exhaustive.
	for _, r := range rows {
		for tech, res := range r.Results {
			if res != nil && res.WorkerPanics > 0 {
				fmt.Fprintf(stderr, "warning: %s %s: %d exploration worker(s) panicked (%s); "+
					"schedule counts are lower bounds and completeness is not claimed\n",
					r.Bench.Name, tech, res.WorkerPanics, res.WorkerPanicMsg)
			}
		}
	}

	// Reports cover the completed rows — on a truncated run they are the
	// partial artifact the checkpoint will later complete.
	fmt.Fprintln(stdout, "=== Table 3: per-benchmark results ===")
	fmt.Fprint(stdout, report.Table3(rows, *limit))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "=== Table 2: trivial-benchmark properties ===")
	fmt.Fprint(stdout, report.Table2(rows, *limit))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "=== Figure 2a: bugs found (systematic techniques) ===")
	fmt.Fprint(stdout, report.VennSystematic(rows).Format())
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "=== Figure 2b: IDB vs Rand vs MapleAlg ===")
	fmt.Fprint(stdout, report.VennVsNaive(rows).Format())

	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "=== Figure 3: schedules to first bug, IPB vs IDB (misses at the limit) ===")
	fmt.Fprint(stdout, report.Fig3Scatter(report.Fig3Series(rows, *limit), *limit))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "=== Figure 4: worst case (non-buggy schedules within the bound) ===")
	fmt.Fprint(stdout, report.Fig4Scatter(report.Fig4Series(rows, *limit), *limit))

	if *table3csv != "" {
		if err := os.WriteFile(*table3csv, []byte(report.Table3CSV(rows)), 0o644); err != nil {
			fmt.Fprintln(stderr, "table3:", err)
		}
	}
	if *fig3csv != "" {
		if err := os.WriteFile(*fig3csv, []byte(report.FigCSV(report.Fig3Series(rows, *limit))), 0o644); err != nil {
			fmt.Fprintln(stderr, "fig3:", err)
		}
	}
	if *fig4csv != "" {
		if err := os.WriteFile(*fig4csv, []byte(report.FigCSV(report.Fig4Series(rows, *limit))), 0o644); err != nil {
			fmt.Fprintln(stderr, "fig4:", err)
		}
	}
	fmt.Fprintf(stderr, "\n%d benchmarks in %s\n", len(rows), elapsed.Round(time.Millisecond))

	if truncated {
		return exitTruncated
	}
	for _, r := range rows {
		for _, res := range r.Results {
			if res.BugFound {
				return exitBug
			}
		}
		if r.Maple != nil && r.Maple.BugFound {
			return exitBug
		}
	}
	return exitClean
}
