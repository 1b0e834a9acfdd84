package main

// Swarm mode: `sctbench -swarm` sweeps technique x bound x seed over the
// selected benchmarks via study.RunSwarm and emits the consolidated CSV.
// With -corpus, every witness the sweep finds lands in the corpus, so a
// later run (swarm or plain) replays it instead of searching cold.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/corpus"
	"sctbench/internal/explore"
	"sctbench/internal/report"
	"sctbench/internal/study"
)

// swarmOptions carries the parsed flag state into runSwarm.
type swarmOptions struct {
	seeds, bounds string
	csvPath       string
	limit         int
	par, workers  int
	withDPOR      bool
	maxWall       time.Duration
	verbose       bool
	store         *corpus.Store
	interrupt     <-chan struct{}
}

func parseUint64List(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad list entry %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad list entry %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func runSwarm(benches []*bench.Benchmark, opt swarmOptions, stdout, stderr io.Writer) int {
	seeds, err := parseUint64List(opt.seeds)
	if err != nil {
		fmt.Fprintln(stderr, "-swarm-seeds:", err)
		return exitError
	}
	bounds, err := parseIntList(opt.bounds)
	if err != nil {
		fmt.Fprintln(stderr, "-swarm-bounds:", err)
		return exitError
	}

	cfg := study.SwarmConfig{
		Bounds:      bounds,
		Seeds:       seeds,
		Limit:       opt.limit,
		Parallelism: opt.par,
		Workers:     opt.workers,
		Interrupt:   opt.interrupt,
		Corpus:      opt.store,
	}
	if opt.withDPOR {
		cfg.Techniques = []explore.Technique{explore.IPB, explore.IDB,
			explore.DFS, explore.Rand, explore.DPOR}
	}
	if opt.maxWall > 0 {
		cfg.Deadline = time.Now().Add(opt.maxWall)
	}
	if opt.verbose {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	cells := study.RunSwarm(benches, cfg)
	elapsed := time.Since(start)

	csv := report.SwarmCSV(cells)
	if opt.csvPath != "" {
		if err := os.WriteFile(opt.csvPath, []byte(csv), 0o644); err != nil {
			fmt.Fprintln(stderr, "swarmcsv:", err)
			return exitError
		}
	} else {
		fmt.Fprint(stdout, csv)
	}

	bugs, hits, skipped := 0, 0, 0
	for _, c := range cells {
		switch {
		case c.Result == nil:
			skipped++
		case c.Result.BugFound:
			bugs++
			if c.Result.CorpusHit {
				hits++
			}
		}
	}
	fmt.Fprintf(stderr, "swarm: %d cells (%d benchmarks), %d buggy (%d corpus hits), %d skipped, %s\n",
		len(cells), len(benches), bugs, hits, skipped, elapsed.Round(time.Millisecond))

	if skipped > 0 {
		return exitTruncated
	}
	if bugs > 0 {
		return exitBug
	}
	return exitClean
}
