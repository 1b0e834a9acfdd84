package bench

import (
	"strings"
	"testing"

	"sctbench/internal/explore"
	"sctbench/internal/race"
	"sctbench/internal/vthread"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 64 {
		t.Fatalf("registry has %d benchmarks, want 64 (52 SCTBench + 6 GoIdiom + 6 GoTime)", len(all))
	}
	core, goidiom, gotime := 0, 0, 0
	for i, b := range all {
		if b.ID != i {
			t.Errorf("position %d has id %d (%s): ids must be the Table 3 row numbers", i, b.ID, b.Name)
		}
		switch b.Suite {
		case "GoIdiom":
			goidiom++
			if b.ID < 52 {
				t.Errorf("%s has id %d: the GoIdiom family extends the registry past the paper's 52 rows", b.Name, b.ID)
			}
		case "GoTime":
			gotime++
			if b.ID < 58 {
				t.Errorf("%s has id %d: the GoTime family extends the registry past GoIdiom", b.Name, b.ID)
			}
		default:
			core++
			if b.ID >= 52 {
				t.Errorf("%s has id %d: SCTBench ids are the Table 3 row numbers 0-51", b.Name, b.ID)
			}
		}
		if b.New == nil {
			t.Errorf("%s has no program constructor", b.Name)
		}
		if b.Threads < 2 {
			t.Errorf("%s declares %d threads; a concurrency benchmark needs at least 2", b.Name, b.Threads)
		}
		if b.Desc == "" {
			t.Errorf("%s has no description", b.Name)
		}
	}
	if core != 52 || goidiom != 6 || gotime != 6 {
		t.Fatalf("registry split %d SCTBench + %d GoIdiom + %d GoTime, want 52 + 6 + 6", core, goidiom, gotime)
	}
}

func TestTable1SuiteCounts(t *testing.T) {
	rows := Table1()
	want := map[string]int{
		"CB": 3, "CHESS": 4, "CS": 29, "Inspect": 1,
		"Miscellaneous": 2, "PARSEC": 4, "RADBench": 6, "SPLASH-2": 3,
	}
	total := 0
	for _, r := range rows {
		if r.Used != want[r.Name] {
			t.Errorf("suite %s has %d benchmarks, want %d (Table 1)", r.Name, r.Used, want[r.Name])
		}
		total += r.Used
	}
	if total != 52 {
		t.Fatalf("total used %d, want 52", total)
	}
}

func TestLookups(t *testing.T) {
	if ByName("CS.account_bad") == nil {
		t.Error("ByName failed for a known benchmark")
	}
	if ByName("no.such.benchmark") != nil {
		t.Error("ByName returned a ghost")
	}
	if b := All()[35]; b.Name != "chess.WSQ" || ByName(b.Name) != b {
		t.Errorf("All()[35] = %v, want chess.WSQ, found by its name", b)
	}
	suites := make(map[string]bool)
	for _, b := range All() {
		suites[b.Suite] = true
	}
	if len(suites) != 10 {
		t.Errorf("suites %v, want 10 (8 SCTBench + GoIdiom + GoTime)", suites)
	}
	if ByName("goidiom.cancel_bad") == nil {
		t.Error("ByName failed for a GoIdiom benchmark")
	}
	if ByName("gotime.ticker_leak_bad") == nil {
		t.Error("ByName failed for a GoTime benchmark")
	}
}

// TestEveryProgramTerminatesUnderRoundRobin: the zero-delay schedule of
// every benchmark must terminate within the step budget (buggy or not) —
// no benchmark may spin forever, or exploration would be unbounded.
func TestEveryProgramTerminatesUnderRoundRobin(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			w := vthread.NewWorld(vthread.Options{
				Chooser:     vthread.RoundRobin(),
				MaxSteps:    b.MaxSteps,
				BoundsCheck: b.BoundsCheck,
			})
			out := w.Run(b.New())
			if out.StepLimitHit {
				t.Fatalf("%s did not terminate under round-robin", b.Name)
			}
		})
	}
}

// TestRegistryThreadCounts: a benchmark's declared Threads is the count Table
// 3 measures for it, the most threads one execution creates (the clock
// pseudo-thread included), here over the round-robin execution and ten
// random ones.
func TestRegistryThreadCounts(t *testing.T) {
	for _, b := range All() {
		ex := vthread.NewExecutor(vthread.Options{MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck})
		most := ex.RunWith(vthread.RoundRobin(), nil, b.New()).Threads
		for seed := uint64(1); seed <= 10; seed++ {
			most = max(most, ex.RunWith(vthread.NewRandom(seed), nil, b.New()).Threads)
		}
		ex.Close()
		if most != b.Threads {
			t.Errorf("%s declares %d threads, its executions create %d", b.Name, b.Threads, most)
		}
	}
}

// TestEveryProgramIsDeterministic: replaying a random schedule must
// reproduce the identical trace and outcome — the foundational SCT
// assumption (§2: scheduler is the only nondeterminism).
func TestEveryProgramIsDeterministic(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ref := vthread.NewWorld(vthread.Options{
				Chooser: vthread.NewRandom(11), MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
			}).Run(b.New())
			rep := vthread.NewReplay(ref.Trace)
			out := vthread.NewWorld(vthread.Options{
				Chooser: rep, MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
			}).Run(b.New())
			if rep.Failed() {
				t.Fatalf("replay diverged at step %d", rep.FailStep())
			}
			if !out.Trace.Equal(ref.Trace) {
				t.Fatal("replayed trace differs")
			}
			if (out.Failure == nil) != (ref.Failure == nil) {
				t.Fatalf("outcome differs: %v vs %v", out.Failure, ref.Failure)
			}
		})
	}
}

// TestEveryBugIsReachable: every benchmark's bug must be exposable by at
// least one technique. For the five benchmarks the paper reports as found
// by *no* technique within 10,000 schedules (reorder_10/20, twostage_100,
// safestack, radbench.bug1), reachability is by construction (the buggy
// schedule exists but is out of budget), so they are exempt here; for
// radbench.bug5 only the Maple algorithm finds it, exercised in the
// mapleidiom tests.
func TestEveryBugIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("reachability sweep is minutes-long; run without -short")
	}
	exempt := map[string]bool{
		"CS.reorder_10_bad":   true,
		"CS.reorder_20_bad":   true,
		"CS.twostage_100_bad": true,
		"misc.safestack":      true,
		"radbench.bug1":       true,
		"radbench.bug5":       true,
	}
	for _, b := range All() {
		if exempt[b.Name] {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			phase := race.RunPhase(race.PhaseConfig{
				Program: b.New(), Seed: 9, MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
			})
			vis := race.Promoted(phase.Racy)
			for _, tech := range []explore.Technique{explore.IDB, explore.IPB, explore.Rand, explore.DFS} {
				r := explore.Run(tech, explore.Config{
					Program: b.New(), Visible: vis, BoundsCheck: b.BoundsCheck,
					MaxSteps: b.MaxSteps, Limit: 10000, Seed: 9,
				})
				if r.BugFound {
					if r.Failure.Kind != b.BugKind {
						t.Fatalf("%s found a %v bug, registry says %v: %v",
							tech, r.Failure.Kind, b.BugKind, r.Failure)
					}
					return
				}
			}
			t.Fatalf("no technique exposed the bug in %s", b.Name)
		})
	}
}

// TestBugKindsMatchFailureMessages is a light sanity check that deadlock
// benchmarks actually deadlock and crash benchmarks actually crash, on a
// random-search witness.
func TestBugKindsMatchFailureMessages(t *testing.T) {
	for _, name := range []string{"CS.deadlock01_bad", "CB.pbzip2-0.9.4"} {
		b := ByName(name)
		found := false
		for seed := uint64(0); seed < 300 && !found; seed++ {
			out := vthread.NewWorld(vthread.Options{
				Chooser: vthread.NewRandom(seed), MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
			}).Run(b.New())
			if out.Buggy() {
				found = true
				if out.Failure.Kind != b.BugKind {
					t.Errorf("%s: failure kind %v, want %v (%v)", name, out.Failure.Kind, b.BugKind, out.Failure)
				}
			}
		}
		if !found {
			t.Errorf("%s: no witness in 300 random runs", name)
		}
	}
}

// TestTrivialBenchmarksFailOnFirstSchedule pins the Table 2 "bug found
// with DB = 0" group: their round-robin schedule is already buggy.
func TestTrivialBenchmarksFailOnFirstSchedule(t *testing.T) {
	names := []string{
		"CS.arithmetic_prog_bad", "CS.din_phil2_sat", "CS.din_phil7_sat",
		"CS.fsbench_bad", "CS.lazy01_bad", "CS.phase01_bad",
		"CS.sync01_bad", "CS.sync02_bad", "radbench.bug3",
	}
	for _, name := range names {
		b := ByName(name)
		if b == nil {
			t.Fatalf("missing %s", name)
		}
		out := vthread.NewWorld(vthread.Options{
			Chooser: vthread.RoundRobin(), MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
		}).Run(b.New())
		if !out.Buggy() {
			t.Errorf("%s: round-robin schedule is not buggy, but this benchmark is in the DB=0 group", name)
		}
	}
}

// TestRoundRobinPassesOnBoundSensitiveBenchmarks pins the complement: the
// benchmarks whose bugs need at least one preemption/delay must pass on
// the zero-delay schedule.
func TestRoundRobinPassesOnBoundSensitiveBenchmarks(t *testing.T) {
	names := []string{
		"CS.account_bad", "CS.bluetooth_driver_bad", "CS.deadlock01_bad",
		"CS.reorder_3_bad", "CS.wronglock_bad", "chess.WSQ", "chess.IWSQ",
		"inspect.qsort_mt", "misc.safestack", "parsec.ferret",
		"parsec.streamcluster", "parsec.streamcluster3",
		"radbench.bug1", "radbench.bug2", "radbench.bug4",
		"splash2.barnes", "splash2.fft", "splash2.lu",
	}
	for _, name := range names {
		b := ByName(name)
		out := vthread.NewWorld(vthread.Options{
			Chooser: vthread.RoundRobin(), MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
		}).Run(b.New())
		if out.Buggy() {
			t.Errorf("%s: round-robin schedule is buggy (%v); its bug must need a bound > 0",
				name, out.Failure)
		}
	}
}

// TestBenchmarksHaveRaces verifies §4.2's finding at our scale: a majority
// of the benchmarks contain data races (detected over a few uncontrolled
// runs), which is why treating races as errors would trivialise the study.
func TestBenchmarksHaveRaces(t *testing.T) {
	racy := 0
	for _, b := range All() {
		phase := race.RunPhase(race.PhaseConfig{
			Program: b.New(), Runs: 3, Seed: 21, MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
		})
		if len(phase.Racy) > 0 {
			racy++
		}
	}
	if racy < 26 {
		t.Errorf("only %d of %d benchmarks show data races; the suite should be race-heavy (paper: 33 of 52)", racy, len(All()))
	}
}

func TestBenchmarkString(t *testing.T) {
	b := All()[0]
	if !strings.Contains(b.String(), "CB.aget-bug2") {
		t.Errorf("String() = %q", b.String())
	}
}
