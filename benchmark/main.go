// Command benchmark is the repo's performance ledger: four end-to-end
// workloads over the SCT pipeline, a traced pass that attributes each
// workload's time to the layers it calls into, per-layer probes, and a
// comparison tool that holds two sets of results against the regression
// bounds in BENCHMARK.json. README.md explains the workloads and metrics.
//
// One process measures one workload:
//
//	bash benchmark/run.sh --workload study_registry --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload partition --seed 1 --seconds 20 --trace 1
//	bash benchmark/run.sh -compare before/ after/
//
// The last line of standard output is the result object the acceptance
// driver reads; the full result (environment, sizes, per-round samples,
// counts, spans) is written to the -out file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: study_registry, exhaustive_reduction, swarm_corpus or partition")
		seed         = flag.Uint64("seed", 1, "input seed")
		seconds      = flag.Int("seconds", 20, "measuring budget; fixes the number of timed rounds")
		trace        = flag.Int("trace", 0, "1 = traced pass and per-layer probes (reports per-layer metrics), 0 = end-to-end metrics")
		outPath      = flag.String("out", "", "result file (default <workdir>/results/<workload>-seed<n>-trace<t>.json)")
		workdir      = flag.String("workdir", ".bench_build", "scratch directory, inside the checkout")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare <before> <after> (files or directories)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare <before> <after>")
			return 2
		}
		return compareMain(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %q\n", flag.Args())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "want --seconds >= 1 and --trace 0 or 1")
		return 2
	}

	rc := runConfig{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sz: fullSizes, workdir: *workdir,
	}
	out, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *outPath == "" {
		*outPath = filepath.Join(*workdir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", rc.workload, rc.seed, *trace))
	}
	if err := writeResult(*outPath, out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printReport(out, *outPath)
	if out.OpsFailed > 0 {
		return 1
	}
	return 0
}

func writeResult(path string, out *runOutput) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints the human-readable summary and, last, the one-line
// result object.
func printReport(out *runOutput, path string) {
	e := out.Env
	fmt.Printf("workload %s  seed %d  rounds %d  trace %v\n", out.Workload, out.Seed, out.Rounds, out.Trace)
	fmt.Printf("env: commit %s, %s %s, NumCPU %d, GOMAXPROCS %d, %s\n",
		e.Commit, e.GoVersion, e.OSArch, e.NumCPU, e.GOMAXPROCS, e.CPUModel)
	for _, s := range out.Skipped {
		fmt.Println("SKIPPED:", s)
	}
	native := map[string]bool{}
	for _, n := range out.Native {
		native[n] = true
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		note := ""
		if vals := out.Samples[n]; len(vals) > 1 {
			note = fmt.Sprintf("  (median of %d; spread %.1f%%)", len(vals), 100*spread(vals))
		}
		if !out.Trace && !native[n] {
			note += "  (not native here: mirrors wall_s / execs_per_s)"
		}
		fmt.Printf("  %-34s %14.6g %-6s%s\n", n, m.Value, m.Unit, note)
	}
	if rss := out.Samples["process_peak_rss_mb"]; len(rss) > 0 {
		fmt.Printf("process peak RSS when the last timed round ended: %.1f MB\n", rss[0])
	}
	if cells := out.Samples["cell_ms"]; len(cells) > 0 {
		fmt.Printf("cell latency: %d cells, each the fastest of %d passes; highest percentile with >=10 samples beyond it: p%g\n",
			len(cells), out.Rounds, tailPercentile(len(cells)))
	}
	countNames := make([]string, 0, len(out.Counts))
	for n := range out.Counts {
		countNames = append(countNames, n)
	}
	sort.Strings(countNames)
	for _, n := range countNames {
		fmt.Printf("  count %-28s %d\n", n, out.Counts[n])
	}
	fmt.Printf("ops_attempted %d  ops_failed %d\n", out.OpsAttempted, out.OpsFailed)
	for _, f := range out.Failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Println("result file:", path)

	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.OpsFailed == 0, out.OpsAttempted, out.OpsFailed, out.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	fmt.Println(string(line))
}
