package explore

// Golden-file regression test: the exact exploration counts and the
// canonical branch key of the first bug witness are pinned for the CS,
// GoIdiom and GoTime suites at a fixed schedule budget. Any change to
// canonical ordering, cost accounting, enabled-set construction or the
// benchmark programs themselves shows up here as a diff against testdata —
// run with -update to regenerate after an intentional change. Since the
// registry migrated to compiled programs, these rows also pin the flat
// engine's scheduling behaviour against the goroutine engine's history.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

const goldenLimit = 500 // fixed schedule budget for the pinned DFS runs

// goldenRow is what a DFS run at the fixed budget pins per benchmark.
type goldenRow struct {
	Schedules  int   `json:"schedules"`
	Executions int   `json:"executions"`
	Complete   bool  `json:"complete"`
	BugFound   bool  `json:"bugFound"`
	WitnessKey []int `json:"witnessKey,omitempty"` // canonical branch key of the first witness
}

// branchKeyOf replays witness and records, at every scheduling point, the
// index of the chosen value within sched.AppendCanonicalOrder — exactly
// the branch-key elements the engine's nodes would carry. Single-enabled
// points pass through Choose like any other and land in the key as index
// 0, matching the engine's stack depth.
func branchKeyOf(t *testing.T, program vthread.Runnable, witness sched.Schedule) []int {
	t.Helper()
	key := make([]int, 0, len(witness))
	ok := true
	ch := vthread.ChooserFunc(func(ctx vthread.Context) sched.ThreadID {
		if ctx.Step >= len(witness) {
			ok = false
			return ctx.Enabled[0]
		}
		want := witness[ctx.Step]
		order := sched.AppendCanonicalOrder(nil, ctx.Enabled, ctx.Last, ctx.NumThreads)
		idx := -1
		for i, c := range order {
			if c == want {
				idx = i
				break
			}
		}
		if idx < 0 {
			ok = false
			return ctx.Enabled[0]
		}
		key = append(key, idx)
		return want
	})
	out := vthread.NewWorld(vthread.Options{Chooser: ch}).Run(program)
	if !ok || !out.Trace.Equal(witness) {
		t.Fatalf("witness %v did not replay canonically (got %v)", witness, out.Trace)
	}
	return key
}

// goldenBenchmarks is the pinned set: the CS suite (the paper's largest)
// plus the GoIdiom and GoTime families.
func goldenBenchmarks() []*bench.Benchmark {
	var out []*bench.Benchmark
	for _, b := range bench.All() {
		if b.Suite == "CS" || b.Suite == "GoIdiom" || b.Suite == "GoTime" {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func TestGoldenDFSCountsAndWitnessKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not short")
	}
	got := make(map[string]goldenRow)
	for _, b := range goldenBenchmarks() {
		r := RunDFS(Config{Program: b.New(), BoundsCheck: b.BoundsCheck,
			MaxSteps: b.MaxSteps, Limit: goldenLimit})
		row := goldenRow{
			Schedules:  r.Schedules,
			Executions: r.Executions,
			Complete:   r.Complete,
			BugFound:   r.BugFound,
		}
		if r.BugFound {
			row.WitnessKey = branchKeyOf(t, b.New(), r.Witness)
		}
		got[b.Name] = row
	}

	compareGolden(t, "golden_dfs.json", got)
}

// compareGolden holds got, one row per benchmark, against the named file
// under testdata — or, under -update, rewrites the file from it.
func compareGolden[Row any](t *testing.T, file string, got map[string]Row) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d rows", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := make(map[string]Row)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	for name, w := range want {
		g, here := got[name]
		if !here {
			t.Errorf("%s: in %s but not run", name, file)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s drifted from %s:\n got %+v\nwant %+v", name, file, g, w)
		}
	}
	for name := range got {
		if _, pinned := want[name]; !pinned {
			t.Errorf("%s: not pinned in %s (run with -update)", name, file)
		}
	}
}

// sleepsetGoldenRow is what a complete sleep-set search pins per benchmark:
// every tally the engine produces, so swapping the engine underneath
// RunSleepSetDFS cannot change a count, a pruning decision or the witness
// unnoticed.
type sleepsetGoldenRow struct {
	Executions          int    `json:"executions"`
	Schedules           int    `json:"schedules"`
	AbortedExecutions   int    `json:"abortedExecutions"`
	BranchesPruned      int    `json:"branchesPruned"`
	TotalSteps          int64  `json:"totalSteps"`
	BugFound            bool   `json:"bugFound"`
	SchedulesToFirstBug int    `json:"schedulesToFirstBug"`
	Witness             string `json:"witness,omitempty"`
}

// TestGoldenSleepSet pins RunSleepSetDFS on the checkpoint matrix's
// benchmarks plus two GoIdiom programs whose trees contain case-decision
// nodes. The file was generated by the dedicated sleep-set engine before it
// was folded into the DPOR walker; it must never change.
func TestGoldenSleepSet(t *testing.T) {
	names := append(append([]string(nil), ckBenchNames...),
		"goidiom.pipeline_bad", "goidiom.workerpool_bad")
	got := make(map[string]sleepsetGoldenRow)
	for _, name := range names {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("unknown benchmark %s", name)
		}
		r := RunSleepSetDFS(Config{Program: b.New(), BoundsCheck: b.BoundsCheck,
			MaxSteps: b.MaxSteps, Limit: 100000})
		if !r.Complete {
			t.Fatalf("%s: sleep-set search did not complete (%d schedules)", name, r.Schedules)
		}
		row := sleepsetGoldenRow{
			Executions:          r.Executions,
			Schedules:           r.Schedules,
			AbortedExecutions:   r.AbortedExecutions,
			BranchesPruned:      r.BranchesPruned,
			TotalSteps:          r.TotalSteps,
			BugFound:            r.BugFound,
			SchedulesToFirstBug: r.SchedulesToFirstBug,
		}
		if r.BugFound {
			row.Witness = r.Witness.String()
		}
		got[name] = row
	}

	compareGolden(t, "golden_sleepset.json", got)
}

// dporGoldenRow is what a DPOR run at the fixed budget pins per benchmark:
// every tally the walker and its race analysis produce, so a change to how
// races are found cannot move a backtrack point, a pruning decision or the
// witness unnoticed.
type dporGoldenRow struct {
	Schedules         int   `json:"schedules"`
	Executions        int   `json:"executions"`
	AbortedExecutions int   `json:"abortedExecutions"`
	BranchesPruned    int   `json:"branchesPruned"`
	TotalSteps        int64 `json:"totalSteps"`
	Complete          bool  `json:"complete"`
	BugFound          bool  `json:"bugFound"`
	WitnessKey        []int `json:"witnessKey,omitempty"` // canonical branch key of the first witness
}

// TestGoldenDPOR pins RunDPOR on the golden benchmark set at the fixed
// budget. The file was generated by the whole-trace race analysis (the one
// dpor_oracle_test.go keeps as its oracle) before the incremental analysis
// replaced it; it must never change.
func TestGoldenDPOR(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not short")
	}
	got := make(map[string]dporGoldenRow)
	for _, b := range goldenBenchmarks() {
		r := RunDPOR(Config{Program: b.New(), BoundsCheck: b.BoundsCheck,
			MaxSteps: b.MaxSteps, Limit: goldenLimit})
		row := dporGoldenRow{
			Schedules:         r.Schedules,
			Executions:        r.Executions,
			AbortedExecutions: r.AbortedExecutions,
			BranchesPruned:    r.BranchesPruned,
			TotalSteps:        r.TotalSteps,
			Complete:          r.Complete,
			BugFound:          r.BugFound,
		}
		if r.BugFound {
			row.WitnessKey = branchKeyOf(t, b.New(), r.Witness)
		}
		got[b.Name] = row
	}

	compareGolden(t, "golden_dpor.json", got)
}

// iterativeGoldenRow is what one IPB or IDB sweep at the fixed budget pins:
// everything the per-pass verdict (PassMerge.Commit) decides for a
// sequential sweep — the bound reached or exposing the bug, the counts at and
// below it, how the sweep ended — plus the work tallies and Table 3 maxima.
type iterativeGoldenRow struct {
	Bound               int   `json:"bound"`
	Schedules           int   `json:"schedules"`
	NewSchedules        int   `json:"newSchedules"`
	BuggySchedules      int   `json:"buggySchedules"`
	SchedulesToFirstBug int   `json:"schedulesToFirstBug"`
	Executions          int   `json:"executions"`
	TotalSteps          int64 `json:"totalSteps"`
	Complete            bool  `json:"complete"`
	LimitHit            bool  `json:"limitHit"`
	MaxEnabled          int   `json:"maxEnabled"`
	MaxSchedPoints      int   `json:"maxSchedPoints"`
	Threads             int   `json:"threads"`
	WitnessKey          []int `json:"witnessKey,omitempty"` // canonical branch key of the first witness
}

// TestGoldenIterative pins RunIterative under both cost models on the golden
// benchmark set at the fixed budget. The file was generated by the dedicated
// sequential sweep loop before the sweep became one root unit per bound under
// the shared unit step, merge and verdict; it must never change.
func TestGoldenIterative(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not short")
	}
	got := make(map[string]map[string]iterativeGoldenRow)
	for _, b := range goldenBenchmarks() {
		rows := make(map[string]iterativeGoldenRow)
		for _, model := range []CostModel{CostPreemptions, CostDelays} {
			r := RunIterative(Config{Program: b.New(), BoundsCheck: b.BoundsCheck,
				MaxSteps: b.MaxSteps, Limit: goldenLimit}, model)
			row := iterativeGoldenRow{
				Bound:               r.Bound,
				Schedules:           r.Schedules,
				NewSchedules:        r.NewSchedules,
				BuggySchedules:      r.BuggySchedules,
				SchedulesToFirstBug: r.SchedulesToFirstBug,
				Executions:          r.Executions,
				TotalSteps:          r.TotalSteps,
				Complete:            r.Complete,
				LimitHit:            r.LimitHit,
				MaxEnabled:          r.MaxEnabled,
				MaxSchedPoints:      r.MaxSchedPoints,
				Threads:             r.Threads,
			}
			if r.BugFound {
				row.WitnessKey = branchKeyOf(t, b.New(), r.Witness)
			}
			rows[model.String()] = row
		}
		got[b.Name] = rows
	}

	compareGolden(t, "golden_iterative.json", got)
}
