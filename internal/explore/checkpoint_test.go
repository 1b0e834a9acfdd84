package explore

// Kill-and-resume equivalence: a search interrupted at an arbitrary
// per-execution poll, checkpointed, and resumed must finish with exactly
// the result an uninterrupted run produces. The interruption point is
// driven deterministically by the fault-injection registry, so every
// technique is killed early, in the middle, and one execution before the
// end. The same harness exercises crash-during-checkpoint-write (the old
// file must survive intact) and the parallel pool's worker-panic
// containment.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/faultinject"
)

// ckBenchNames are the CS benchmarks the equivalence matrix runs on:
// small enough to keep the matrix fast, varied enough to hit multi-thread
// frontiers, select nodes and pruning.
var ckBenchNames = []string{"CS.account_bad", "CS.circular_buffer_bad", "CS.queue_bad"}

// ckTechniques names every sequential driver the checkpoint format covers.
var ckTechniques = []struct {
	name string
	run  func(Config) *Result
}{
	{"DFS", RunDFS},
	{"IPB", func(c Config) *Result { return RunIterative(c, CostPreemptions) }},
	{"IDB", func(c Config) *Result { return RunIterative(c, CostDelays) }},
	{"Rand", RunRand},
	{"sleepset", RunSleepSetDFS},
	{"DPOR", RunDPOR},
}

func ckCfg(t *testing.T, name string, limit int) Config {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %s", name)
	}
	return Config{
		Program:     b.New(),
		BoundsCheck: b.BoundsCheck,
		MaxSteps:    b.MaxSteps,
		Limit:       limit,
		Seed:        7,
	}
}

// diffResults compares every Result field that kill-and-resume must
// preserve, returning human-readable mismatches. CheckpointError is
// excluded (it describes the run's own checkpoint writes, not the search).
func diffResults(want, got *Result) []string {
	var d []string
	chk := func(field string, w, g any) {
		if !reflect.DeepEqual(w, g) {
			d = append(d, fmt.Sprintf("%s: got %v, want %v", field, g, w))
		}
	}
	chk("Technique", want.Technique, got.Technique)
	chk("BugFound", want.BugFound, got.BugFound)
	chk("Bound", want.Bound, got.Bound)
	chk("SchedulesToFirstBug", want.SchedulesToFirstBug, got.SchedulesToFirstBug)
	chk("Schedules", want.Schedules, got.Schedules)
	chk("NewSchedules", want.NewSchedules, got.NewSchedules)
	chk("BuggySchedules", want.BuggySchedules, got.BuggySchedules)
	chk("Complete", want.Complete, got.Complete)
	chk("LimitHit", want.LimitHit, got.LimitHit)
	chk("MaxEnabled", want.MaxEnabled, got.MaxEnabled)
	chk("MaxSchedPoints", want.MaxSchedPoints, got.MaxSchedPoints)
	chk("Threads", want.Threads, got.Threads)
	chk("Executions", want.Executions, got.Executions)
	chk("AbortedExecutions", want.AbortedExecutions, got.AbortedExecutions)
	chk("BranchesPruned", want.BranchesPruned, got.BranchesPruned)
	chk("TotalSteps", want.TotalSteps, got.TotalSteps)
	chk("Stopped", want.Stopped, got.Stopped)
	chk("WorkerPanics", want.WorkerPanics, got.WorkerPanics)
	if !want.Witness.Equal(got.Witness) {
		d = append(d, fmt.Sprintf("Witness: got %v, want %v", got.Witness, want.Witness))
	}
	if !reflect.DeepEqual(want.Failure, got.Failure) {
		d = append(d, fmt.Sprintf("Failure: got %+v, want %+v", got.Failure, want.Failure))
	}
	return d
}

func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if d := diffResults(want, got); len(d) != 0 {
		t.Errorf("%s: resumed result diverged:\n  %s", label, strings.Join(d, "\n  "))
	}
}

// interruptAndResume kills run at its nth per-execution poll, requires a
// checkpoint, resumes it, and returns the resumed final result.
func interruptAndResume(t *testing.T, run func(Config) *Result, cfg Config, n int) *Result {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	killed := cfg
	killed.CheckpointPath = path
	faultinject.Arm(faultinject.ExploreInterrupt, int64(n))
	r := run(killed)
	faultinject.Reset()
	if r.Stopped != StopInterrupted {
		t.Fatalf("poll %d: Stopped = %v, want interrupted", n, r.Stopped)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("poll %d: LoadCheckpoint: %v", n, err)
	}
	res, err := Resume(ck, cfg)
	if err != nil {
		t.Fatalf("poll %d: Resume: %v", n, err)
	}
	return res
}

// TestKillAndResumeEquivalence is the tentpole acceptance matrix: every
// technique on every matrix benchmark, killed early / mid / late, resumes
// to a bit-identical final result.
func TestKillAndResumeEquivalence(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	const limit = 150
	for _, tech := range ckTechniques {
		for _, name := range ckBenchNames {
			t.Run(tech.name+"/"+name, func(t *testing.T) {
				base := tech.run(ckCfg(t, name, limit))
				if base.Stopped != StopCompleted && base.Stopped != StopLimit {
					t.Fatalf("baseline Stopped = %v", base.Stopped)
				}
				if base.Executions < 4 {
					t.Fatalf("baseline too small to interrupt: %d executions", base.Executions)
				}
				for _, n := range []int{1, base.Executions / 2, base.Executions - 1} {
					res := interruptAndResume(t, tech.run, ckCfg(t, name, limit), n)
					requireSameResult(t, fmt.Sprintf("poll %d", n), base, res)
				}
			})
		}
	}
}

// TestPeriodicCheckpointResume drives the CheckpointEvery path: a run that
// completes normally leaves its last periodic snapshot behind, and
// resuming that snapshot re-explores only the tail — landing on the same
// final result.
func TestPeriodicCheckpointResume(t *testing.T) {
	const limit = 120
	for _, tech := range ckTechniques {
		t.Run(tech.name, func(t *testing.T) {
			base := tech.run(ckCfg(t, "CS.account_bad", limit))
			path := filepath.Join(t.TempDir(), "ck.json")
			cfg := ckCfg(t, "CS.account_bad", limit)
			cfg.CheckpointPath = path
			cfg.CheckpointEvery = 3
			full := tech.run(cfg)
			requireSameResult(t, "periodic-checkpointed run", base, full)
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("no periodic checkpoint left behind: %v", err)
			}
			res, err := Resume(ck, ckCfg(t, "CS.account_bad", limit))
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			requireSameResult(t, "resume from periodic snapshot", base, res)
		})
	}
	// A parallel sweep checkpoints periodically too: the active bound's
	// owners park, the file is written, and the units are handed out again.
	// The run is killed by a crash in its second periodic write, so the
	// first is what is left to resume.
	for _, tech := range ckTechniques[1:3] { // IPB, IDB
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tech.name, workers), func(t *testing.T) {
				t.Cleanup(faultinject.Reset)
				base := tech.run(ckCfg(t, "CS.reorder_4_bad", 300))
				path := filepath.Join(t.TempDir(), "ck.json")
				cfg := ckCfg(t, "CS.reorder_4_bad", 300)
				cfg.Workers = workers
				cfg.CheckpointPath = path
				cfg.CheckpointEvery = 5
				faultinject.Arm(faultinject.CheckpointWrite, 2)
				if r := tech.run(cfg); r.Stopped != StopInterrupted {
					t.Fatalf("the run was not killed by its second periodic write: Stopped = %v", r.Stopped)
				}
				faultinject.Reset()
				ck, err := LoadCheckpoint(path)
				if err != nil {
					t.Fatalf("no periodic checkpoint left behind: %v", err)
				}
				if ck.Pool == nil || ck.Result.Stopped != StopCompleted {
					t.Fatalf("left behind a file that is not a periodic unit-set snapshot (stopped %v)", ck.Result.Stopped)
				}
				for _, w := range []int{1, workers} {
					cfg := ckCfg(t, "CS.reorder_4_bad", 300)
					cfg.Workers = w
					res, err := Resume(ck, cfg)
					if err != nil {
						t.Fatalf("Resume: %v", err)
					}
					requireSameResult(t, fmt.Sprintf("resume at workers=%d", w), maskWorkMetrics(base), maskWorkMetrics(res))
				}
			})
		}
	}
	// Rand paces periodic checkpoints by folded runs at every worker count.
	t.Run("Rand/workers=4", func(t *testing.T) {
		base := RunRand(ckCfg(t, "CS.account_bad", limit))
		path := filepath.Join(t.TempDir(), "ck.json")
		cfg := ckCfg(t, "CS.account_bad", limit)
		cfg.Workers = 4
		cfg.CheckpointPath = path
		cfg.CheckpointEvery = 3
		requireSameResult(t, "periodic-checkpointed run", base, RunRand(cfg))
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("no periodic checkpoint left behind: %v", err)
		}
		if ck.NextRun <= 0 || ck.NextRun >= limit || ck.Result.Stopped != StopCompleted {
			t.Fatalf("left behind nextRun %d, Stopped %v: not a periodic snapshot", ck.NextRun, ck.Result.Stopped)
		}
		for _, workers := range []int{1, 4} {
			cfg := ckCfg(t, "CS.account_bad", limit)
			cfg.Workers = workers
			res, err := Resume(ck, cfg)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			requireSameResult(t, fmt.Sprintf("resume at workers=%d", workers), base, res)
		}
	})
}

// TestRandPeriodicCheckpointLateRunZero holds run 0 of a four-sweeper Rand
// sweep back until every other run has been drawn, run and held pending —
// each of the other three sweepers has drawn the index past the end it quits
// on — so that run 0's fold releases all of them at once and the watermark
// goes from 0 to Limit in one drain. CheckpointEvery counts folded runs, so
// that drain owes periodic checkpoints; asked only once the drain was over,
// at Limit, it wrote none.
func TestRandPeriodicCheckpointLateRunZero(t *testing.T) {
	const limit, workers = 40, 4
	base := RunRand(ckCfg(t, "CS.account_bad", limit))
	path := filepath.Join(t.TempDir(), "ck.json")
	cfg := ckCfg(t, "CS.account_bad", limit)
	cfg.Workers = workers
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 3
	rest := make(chan struct{})
	var mu sync.Mutex
	quit := 0
	randDispensed = func(i int) {
		switch {
		case i == 0:
			<-rest
		case i >= limit:
			mu.Lock()
			if quit++; quit == workers-1 {
				close(rest)
			}
			mu.Unlock()
		}
	}
	defer func() { randDispensed = nil }()
	requireSameResult(t, "late run 0", base, RunRand(cfg))
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("no periodic checkpoint left behind: %v", err)
	}
	if ck.NextRun <= 0 || ck.NextRun >= limit || ck.Result.Stopped != StopCompleted {
		t.Fatalf("left behind nextRun %d, Stopped %v: not a periodic snapshot", ck.NextRun, ck.Result.Stopped)
	}
	res, err := Resume(ck, ckCfg(t, "CS.account_bad", limit))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	requireSameResult(t, "resume", base, res)
}

// TestDeadlineStops: an already-expired wall-clock deadline stops the
// search at its first poll with StopDeadline and a resumable checkpoint.
func TestDeadlineStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	base := RunDFS(ckCfg(t, "CS.queue_bad", 100))
	cfg := ckCfg(t, "CS.queue_bad", 100)
	cfg.Deadline = time.Now().Add(-time.Second)
	cfg.CheckpointPath = path
	r := RunDFS(cfg)
	if r.Stopped != StopDeadline {
		t.Fatalf("Stopped = %v, want deadline", r.Stopped)
	}
	if r.Executions != 0 {
		t.Fatalf("expired deadline still ran %d executions", r.Executions)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	res, err := Resume(ck, ckCfg(t, "CS.queue_bad", 100))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	requireSameResult(t, "resume after deadline", base, res)
}

// tryInterruptAndResume is interruptAndResume for the parallel pool,
// where the number of per-execution polls before natural completion is
// timing-dependent: when the injected interrupt never fires, it reports
// ok=false instead of failing, and the caller skips that point.
func tryInterruptAndResume(t *testing.T, run func(Config) *Result, cfg Config, n int) (*Result, bool) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	killed := cfg
	killed.CheckpointPath = path
	faultinject.Arm(faultinject.ExploreInterrupt, int64(n))
	r := run(killed)
	faultinject.Reset()
	if r.Stopped != StopInterrupted {
		return nil, false
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("poll %d: LoadCheckpoint: %v", n, err)
	}
	res, err := Resume(ck, cfg)
	if err != nil {
		t.Fatalf("poll %d: Resume: %v", n, err)
	}
	return res, true
}

// maskWorkMetrics zeroes the fields the parallel pool does not promise to
// reproduce exactly: under a truncating limit units run on behind the cut
// until the front of the canonical order is known, and the speculative
// iterative job's discarded progress is re-done on resume — so raw
// execution and step totals can differ while every schedule count, the
// first bug and the witness stay exact.
func maskWorkMetrics(r *Result) *Result {
	m := *r
	m.Executions = 0
	m.TotalSteps = 0
	m.AbortedExecutions = 0
	return &m
}

// TestKillAndResumeParallel covers the worker pool: DFS with 8 workers is
// interrupted mid-pass (stop-the-world suspension parks positioned units),
// checkpointed, and resumed — schedule counts, bounds, verdicts and the
// witness must equal the sequential run exactly, per the pool's
// determinism contract. DPOR's parallel partition legitimately explores a
// different (sound) subset, so it is held to verdict-level equivalence.
func TestKillAndResumeParallel(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	const limit = 300
	t.Run("DFS", func(t *testing.T) {
		base := RunDFS(ckCfg(t, "CS.account_bad", limit))
		cfg := ckCfg(t, "CS.account_bad", limit)
		cfg.Workers = 8
		fired := 0
		for _, n := range []int{1, 40, 150} {
			res, ok := tryInterruptAndResume(t, RunDFS, cfg, n)
			if !ok {
				continue
			}
			fired++
			requireSameResult(t, fmt.Sprintf("workers=8 poll %d", n),
				maskWorkMetrics(base), maskWorkMetrics(res))
		}
		if fired == 0 {
			t.Fatal("no interruption point fired")
		}
	})
	t.Run("IPB", func(t *testing.T) {
		seq := ckCfg(t, "CS.circular_buffer_bad", limit)
		base := RunIterative(seq, CostPreemptions)
		cfg := ckCfg(t, "CS.circular_buffer_bad", limit)
		cfg.Workers = 8
		run := func(c Config) *Result { return RunIterative(c, CostPreemptions) }
		fired := 0
		for _, n := range []int{1, 10, 25} {
			res, ok := tryInterruptAndResume(t, run, cfg, n)
			if !ok {
				continue
			}
			fired++
			requireSameResult(t, fmt.Sprintf("workers=8 poll %d", n),
				maskWorkMetrics(base), maskWorkMetrics(res))
		}
		if fired == 0 {
			t.Fatal("no interruption point fired")
		}
	})
	t.Run("DPOR", func(t *testing.T) {
		base := RunDPOR(ckCfg(t, "CS.queue_bad", limit))
		cfg := ckCfg(t, "CS.queue_bad", limit)
		cfg.Workers = 8
		fired := 0
		for _, n := range []int{1, 10} {
			res, ok := tryInterruptAndResume(t, RunDPOR, cfg, n)
			if !ok {
				continue
			}
			fired++
			if res.BugFound != base.BugFound {
				t.Errorf("poll %d: BugFound = %v, want %v", n, res.BugFound, base.BugFound)
			}
			if base.Complete && !res.Complete {
				t.Errorf("poll %d: resumed DPOR incomplete, sequential completed", n)
			}
			if res.BugFound && res.Witness == nil {
				t.Errorf("poll %d: bug without witness", n)
			}
		}
		if fired == 0 {
			t.Fatal("no interruption point fired")
		}
	})
}

// TestCheckpointWriteCrash: a simulated mid-write death while saving must
// leave the previous checkpoint byte-identical on disk, and that old file
// must still resume to the uninterrupted result.
func TestCheckpointWriteCrash(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	const limit = 150
	base := RunDFS(ckCfg(t, "CS.queue_bad", limit))
	path := filepath.Join(t.TempDir(), "ck.json")

	// First interruption writes a good checkpoint.
	cfg := ckCfg(t, "CS.queue_bad", limit)
	cfg.CheckpointPath = path
	faultinject.Arm(faultinject.ExploreInterrupt, 5)
	r1 := RunDFS(cfg)
	faultinject.Reset()
	if r1.Stopped != StopInterrupted {
		t.Fatalf("first run Stopped = %v", r1.Stopped)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Resume, then die halfway through writing the next checkpoint.
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.ExploreInterrupt, 5)
	faultinject.Arm(faultinject.CheckpointWrite, 1)
	r2, err := Resume(ck, cfg)
	faultinject.Reset()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if r2.Stopped != StopInterrupted {
		t.Fatalf("second run Stopped = %v", r2.Stopped)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, after) {
		t.Fatal("crashed checkpoint write corrupted the previous checkpoint")
	}

	// The surviving old checkpoint still resumes to the full result.
	ck2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(ck2, ckCfg(t, "CS.queue_bad", limit))
	if err != nil {
		t.Fatalf("Resume from surviving checkpoint: %v", err)
	}
	requireSameResult(t, "resume from pre-crash checkpoint", base, res)
}

// TestLoadCheckpointErrors pins the failure modes a user actually hits:
// garbage bytes, a file truncated mid-write, a version from the future,
// and an internally inconsistent frontier.
func TestLoadCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	wantErr := func(name, contents, frag string) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(p)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("%s: error %v, want mention of %q", name, err, frag)
		}
	}
	wantErr("garbage.json", "not json at all {", "corrupt or truncated")
	wantErr("empty.json", "", "corrupt or truncated")

	// A real checkpoint, then damaged in controlled ways.
	path := filepath.Join(dir, "real.json")
	cfg := ckCfg(t, "CS.account_bad", 100)
	cfg.CheckpointPath = path
	faultinject.Arm(faultinject.ExploreInterrupt, 3)
	RunDFS(cfg)
	faultinject.Reset()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantErr("truncated.json", string(raw[:len(raw)/2]), "corrupt or truncated")

	var ck Checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	ck.Version = 99
	if _, err := mutatedLoad(dir, "version.json", &ck); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: error %v, want version complaint", err)
	}
	ck.Version = CheckpointVersion
	ck.Technique = "quantum"
	if _, err := mutatedLoad(dir, "tech.json", &ck); err == nil || !strings.Contains(err.Error(), "technique") {
		t.Errorf("unknown technique: error %v, want technique complaint", err)
	}

	// An inconsistent frontier node fails at Resume with a clear error.
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Engine == nil || len(ck.Engine.Nodes) == 0 {
		t.Fatal("DFS checkpoint has no frontier nodes")
	}
	ck.Engine.Nodes[0].Idx = 99
	if _, err := Resume(&ck, ckCfg(t, "CS.account_bad", 100)); err == nil {
		t.Error("Resume accepted an out-of-range frontier index")
	}
}

// TestResumeRejectsOldSleepSetCheckpoint: sleep-set DFS now runs on the
// DPOR walker, so a "sleepset" checkpoint carries that walker's node codec
// (done and backtrack sets per node). A file written by a build that still
// had a dedicated sleep-set engine carries neither; it loads (a version-1
// envelope still does) but must be refused at Resume as an inconsistent
// frontier — never resumed as if every backtrack set were empty.
func TestResumeRejectsOldSleepSetCheckpoint(t *testing.T) {
	ck, err := LoadCheckpoint(filepath.Join("testdata", "sleepset_checkpoint_ssengine.json"))
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	_, err = Resume(ck, ckCfg(t, "CS.account_bad", 100))
	if err == nil || !strings.Contains(err.Error(), "inconsistent frontier node") {
		t.Fatalf("Resume(old sleepset checkpoint) = %v, want an inconsistent-frontier error", err)
	}
}

// TestResumeRejectsMisfitFrontier: a structurally sound frontier that names
// a thread the program never offers (a hand-edited file, or a program that
// changed since the file was written) makes the engine replay a choice that
// is not enabled. The substrate panics; Resume must return that as an error,
// not crash the process — for the tree and for a bound of a sweep.
func TestResumeRejectsMisfitFrontier(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	for _, tech := range ckTechniques[:2] { // DFS, IPB
		t.Run(tech.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.json")
			cfg := ckCfg(t, "CS.account_bad", 100)
			cfg.CheckpointPath = path
			faultinject.Arm(faultinject.ExploreInterrupt, 6)
			tech.run(cfg)
			faultinject.Reset()
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			ck.Engine.Nodes[1].Order[0] = 77
			res, err := Resume(ck, ckCfg(t, "CS.account_bad", 100))
			if err == nil || !strings.Contains(err.Error(), "frontier does not fit this program") ||
				!strings.Contains(err.Error(), "thread 77") {
				t.Fatalf("Resume(misfit frontier) = %v, %v; want a does-not-fit error naming thread 77", res, err)
			}
			if res != nil {
				t.Fatalf("Resume returned a result next to its error: %+v", res)
			}
		})
	}
	// The pool contains the panic as a forfeited unit; Resume still says why.
	t.Run("pool", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ck.json")
		cfg := ckCfg(t, "CS.account_bad", 300)
		cfg.Workers = 2
		cfg.CheckpointPath = path
		faultinject.Arm(faultinject.ExploreInterrupt, 10)
		r := RunDFS(cfg)
		faultinject.Reset()
		if r.Stopped != StopInterrupted {
			t.Skipf("the pool finished before its 10th poll (Stopped = %v)", r.Stopped)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ck.Pool.Units {
			if len(u.Engine.Nodes) > 0 {
				u.Engine.Nodes[0].Order[0] = 77 // the root choice every unit replays
			}
		}
		cfg = ckCfg(t, "CS.account_bad", 300)
		cfg.Workers = 2
		res, err := Resume(ck, cfg)
		if err == nil || !strings.Contains(err.Error(), "frontier does not fit this program") || res != nil {
			t.Fatalf("Resume(misfit pool frontier) = %v, %v; want a does-not-fit error", res, err)
		}
	})
}

// badWalkerFrontiers derives from a sequential POR-walker checkpoint one
// file per way a node can break the trust boundary restoreDPOR keeps: sleep
// entries naming a thread twice or out of order, a sleeping thread outside
// [0, NThreads), and a thread count below one. The edits go to the deepest
// node.
func badWalkerFrontiers(ck *Checkpoint) map[string]*Checkpoint {
	edit := func(f func(ns *NodeState)) *Checkpoint {
		c, eng := *ck, *ck.Engine
		eng.Nodes = slices.Clone(eng.Nodes)
		f(&eng.Nodes[len(eng.Nodes)-1])
		c.Engine = &eng
		return &c
	}
	entry := func(t int) SleepEntry {
		return SleepEntry{Thread: t, Info: PendingState{Objects: []string{"mutex/account"}}}
	}
	return map[string]*Checkpoint{
		"sleep-duplicate":  edit(func(ns *NodeState) { ns.Sleep = []SleepEntry{entry(1), entry(1)} }),
		"sleep-descending": edit(func(ns *NodeState) { ns.Sleep = []SleepEntry{entry(2), entry(1)} }),
		"sleep-past-count": edit(func(ns *NodeState) { ns.Sleep = []SleepEntry{entry(ns.NThreads)} }),
		"sleep-negative":   edit(func(ns *NodeState) { ns.Sleep = []SleepEntry{entry(-1)} }),
		"no-threads":       edit(func(ns *NodeState) { ns.NThreads = 0 }),
	}
}

// TestResumeRejectsBadWalkerFrontier: the walker indexes by the thread ids a
// file names, so a sleep set that is not strictly ascending or names a
// thread outside the node's count, and a count below one, are errors from
// Resume — never a panic, never a silently collapsed entry.
func TestResumeRejectsBadWalkerFrontier(t *testing.T) {
	base := loadGolden(t, goldenFiles(t, "golden_checkpoint.json")["dpor"])
	for name, ck := range badWalkerFrontiers(base) {
		t.Run(name, func(t *testing.T) {
			res, err := Resume(ck, ckCfg(t, "CS.account_bad", 100))
			if err == nil || !strings.Contains(err.Error(), "frontier node") || res != nil {
				t.Fatalf("Resume = %v, %v; want a frontier-node error", res, err)
			}
		})
	}
}

// badBoundedFrontiers derives from the pinned DFS and IPB checkpoints one
// file per way a bounded node's costs or prefix cost can disagree with what
// restoreBounded derives from the model: a node of the preemption pattern
// with a delay's cost, or a cost on its canonical first choice; a cost on a
// DFS choice; and a prefix cost that is not what the choices above add up to.
func badBoundedFrontiers(dfs, ipb *Checkpoint) map[string]*Checkpoint {
	edit := func(ck *Checkpoint, f func(nodes []NodeState)) *Checkpoint {
		c, eng := *ck, *ck.Engine
		eng.Nodes = slices.Clone(eng.Nodes)
		for i := range eng.Nodes {
			eng.Nodes[i].Costs = slices.Clone(eng.Nodes[i].Costs)
		}
		f(eng.Nodes)
		c.Engine = &eng
		return &c
	}
	// branching is the first node with three choices or more.
	branching := func(nodes []NodeState) *NodeState {
		for i := range nodes {
			if len(nodes[i].Costs) > 2 {
				return &nodes[i]
			}
		}
		panic("no node with three choices")
	}
	costly := func(nodes []NodeState) *NodeState {
		for i := range nodes {
			if len(nodes[i].Costs) > 2 && nodes[i].Costs[1] == 1 {
				return &nodes[i]
			}
		}
		panic("no node of three choices that costs preemptions")
	}
	return map[string]*Checkpoint{
		"ipb-delay-cost":   edit(ipb, func(ns []NodeState) { costly(ns).Costs[2] = 2 }),
		"ipb-first-costs":  edit(ipb, func(ns []NodeState) { costly(ns).Costs[0] = 1 }),
		"dfs-costs":        edit(dfs, func(ns []NodeState) { branching(ns).Costs[1] = 1 }),
		"ipb-prefix-cost":  edit(ipb, func(ns []NodeState) { ns[len(ns)-1].Base++ }),
		"ipb-root-base":    edit(ipb, func(ns []NodeState) { ns[0].Base = -1 }),
		"ipb-costs-length": edit(ipb, func(ns []NodeState) { costly(ns).Costs = costly(ns).Costs[:1] }),
	}
}

// TestResumeRejectsBadBoundedFrontier: a bounded node's costs are derived
// from its model, not trusted from the file, so a cost list that is not the
// pattern of the model, and a prefix cost that does not add up, are errors
// from Resume — never a search that silently moves the bound's cut.
func TestResumeRejectsBadBoundedFrontier(t *testing.T) {
	files := goldenFiles(t, "golden_checkpoint.json")
	for name, ck := range badBoundedFrontiers(loadGolden(t, files["dfs"]), loadGolden(t, files["ipb"])) {
		t.Run(name, func(t *testing.T) {
			res, err := Resume(ck, ckCfg(t, "CS.account_bad", 100))
			if err == nil || !strings.Contains(err.Error(), "frontier node") || res != nil {
				t.Fatalf("Resume = %v, %v; want a frontier-node error", res, err)
			}
		})
	}
}

// goldenFiles reads a testdata blob of pinned checkpoint files, by key.
func goldenFiles(t *testing.T, name string) map[string]json.RawMessage {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var files map[string]json.RawMessage
	if err := json.Unmarshal(blob, &files); err != nil {
		t.Fatal(err)
	}
	return files
}

// loadGolden writes one pinned file out and loads it as a checkpoint.
func loadGolden(t *testing.T, raw json.RawMessage) *Checkpoint {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	return ck
}

// TestResumeGoldenCheckpoints resumes files this build did not write: the
// four checkpoints pinned in golden_checkpoint.json are bytes an earlier
// build's drivers produced, and each must finish as the uninterrupted run of
// the same configuration does. golden_pool_checkpoint.json pins four unit-set
// files an earlier build's two partitioning schedulers wrote (CS.account_bad,
// limit 100): the in-process pool drained mid DFS at two workers, the pool
// interrupted mid IPB sweep with its speculative bound running, and the
// distributed coordinator drained mid DFS and mid IPB. Each resumes here on
// the in-process scheduler (internal/dist resumes the same files on a
// coordinator) and must keep the sequential run's counts, first bug and
// witness; only the work tallies may differ, as for any partitioned search
// the limit cuts.
func TestResumeGoldenCheckpoints(t *testing.T) {
	files := goldenFiles(t, "golden_checkpoint.json")
	runs := map[string]func(Config) *Result{
		"dfs":  RunDFS,
		"ipb":  func(c Config) *Result { return RunIterative(c, CostPreemptions) },
		"dpor": RunDPOR,
		"rand": RunRand,
	}
	if len(files) != len(runs) {
		t.Fatalf("golden file holds %d checkpoints, want %d", len(files), len(runs))
	}
	for key, run := range runs {
		t.Run(key, func(t *testing.T) {
			res, err := Resume(loadGolden(t, files[key]), ckCfg(t, "CS.account_bad", 100))
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			requireSameResult(t, "resumed pinned checkpoint", run(ckCfg(t, "CS.account_bad", 100)), res)
		})
	}
	pool := goldenFiles(t, "golden_pool_checkpoint.json")
	if len(pool) != 4 {
		t.Fatalf("golden_pool_checkpoint.json holds %d checkpoints, want 4", len(pool))
	}
	for key, raw := range pool {
		t.Run(key, func(t *testing.T) {
			ck := loadGolden(t, raw)
			if ck.Pool == nil || len(ck.Pool.Units) == 0 {
				t.Fatalf("%s is not a unit-set file with units to run", key)
			}
			run := runs[strings.ToLower(ck.Technique)]
			want := maskWorkMetrics(run(ckCfg(t, "CS.account_bad", 100)))
			for _, workers := range []int{1, 2} {
				cfg := ckCfg(t, "CS.account_bad", 100)
				cfg.Workers = workers
				res, err := Resume(loadGolden(t, raw), cfg)
				if err != nil {
					t.Fatalf("Resume: %v", err)
				}
				requireSameResult(t, fmt.Sprintf("resumed at workers=%d", workers), want, maskWorkMetrics(res))
			}
		})
	}
}

func mutatedLoad(dir, name string, ck *Checkpoint) (*Checkpoint, error) {
	data, err := json.Marshal(ck)
	if err != nil {
		return nil, err
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return nil, err
	}
	return LoadCheckpoint(p)
}

// TestCheckpointGoldenFormat pins the on-disk checkpoint schema. The
// interruption point is fault-injected, so the serialized frontier is
// fully deterministic; any change to the format or to what the engines
// snapshot shows up as a diff here. Run with -update after an intentional
// format change (and bump CheckpointVersion when the change is not
// backward compatible).
func TestCheckpointGoldenFormat(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	runs := []struct {
		key string
		run func(Config) *Result
	}{
		{"dfs", RunDFS},
		{"ipb", func(c Config) *Result { return RunIterative(c, CostPreemptions) }},
		{"dpor", RunDPOR},
		{"rand", RunRand},
	}
	got := map[string]json.RawMessage{}
	for _, tc := range runs {
		path := filepath.Join(t.TempDir(), tc.key+".json")
		cfg := ckCfg(t, "CS.account_bad", 100)
		cfg.CheckpointPath = path
		cfg.Meta = CheckpointMeta{Benchmark: "CS.account_bad", Racy: []string{"balance"}}
		faultinject.Arm(faultinject.ExploreInterrupt, 6)
		r := tc.run(cfg)
		faultinject.Reset()
		if r.Stopped != StopInterrupted {
			t.Fatalf("%s: Stopped = %v", tc.key, r.Stopped)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got[tc.key] = raw
	}
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')

	golden := filepath.Join("testdata", "golden_checkpoint.json")
	if *updateGolden {
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, blob) {
		t.Errorf("checkpoint format drifted from %s (run with -update if intentional)", golden)
	}
}

// TestWorkerPanicPoolSurvives: a worker dying mid-unit (outside the
// substrate's containment) must not wedge the pool — the unit's counts
// are forfeited, the rest of the pass drains, and the result reports the
// panic and withholds Complete. Run under -race in CI.
func TestWorkerPanicPoolSurvives(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	const limit = 400
	base := RunDFS(ckCfg(t, "CS.account_bad", limit))
	cfg := ckCfg(t, "CS.account_bad", limit)
	cfg.Workers = 8
	faultinject.Arm(faultinject.PoolUnitPanic, 30)
	r := RunDFS(cfg)
	faultinject.Reset()
	if r.WorkerPanics != 1 {
		t.Fatalf("WorkerPanics = %d, want 1", r.WorkerPanics)
	}
	if !strings.Contains(r.WorkerPanicMsg, "faultinject") {
		t.Fatalf("WorkerPanicMsg = %q", r.WorkerPanicMsg)
	}
	if r.Complete {
		t.Fatal("Complete reported despite a forfeited unit")
	}
	// The dead unit's counts — and its unexplored frontier — are forfeited,
	// so the total can only shrink. How much survives depends on when work
	// was donated to other units before the death, which is timing-dependent.
	if r.Schedules > base.Schedules {
		t.Fatalf("Schedules = %d after worker panic, sequential explored %d", r.Schedules, base.Schedules)
	}
}

// TestCheckpointV1RoundTrip: a version-1 file still loads. Its unit results
// list one buggy offset per schedule (buggyOffs); loaded, they are runs of
// the same schedules, saved they are a version-2 file with no offsets left,
// and reloaded that file holds the same counts. The sequential files of
// golden_checkpoint.json, turned back into the version-1 bytes an earlier
// build wrote, resume as their version-2 form does.
func TestCheckpointV1RoundTrip(t *testing.T) {
	offsets := func(raw json.RawMessage) (n int) {
		var v1 struct {
			Pool struct {
				Units []struct {
					Partial *struct{ BuggyOffs []int } `json:"partial"`
				} `json:"units"`
				Done []struct{ BuggyOffs []int } `json:"done"`
			} `json:"pool"`
		}
		if err := json.Unmarshal(raw, &v1); err != nil {
			t.Fatal(err)
		}
		for _, u := range v1.Pool.Units {
			if u.Partial != nil {
				n += len(u.Partial.BuggyOffs)
			}
		}
		for _, d := range v1.Pool.Done {
			n += len(d.BuggyOffs)
		}
		return n
	}
	results := func(ck *Checkpoint) (us []*UnitResultState) {
		for i := range ck.Pool.Units {
			if p := ck.Pool.Units[i].Partial; p != nil {
				us = append(us, p)
			}
		}
		for i := range ck.Pool.Done {
			us = append(us, &ck.Pool.Done[i])
		}
		return us
	}
	total := 0
	for key, raw := range goldenFiles(t, "golden_pool_checkpoint.json") {
		v1 := loadGolden(t, raw)
		path := filepath.Join(t.TempDir(), "v2.json")
		if err := v1.Save(path); err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(saved, []byte("buggyOffs")) || !bytes.Contains(saved, []byte(`"version": 2`)) {
			t.Errorf("%s: saved file is not a version-2 file of runs", key)
		}
		v2 := loadGolden(t, saved)
		a, b := results(v1), results(v2)
		want := offsets(raw)
		got := 0
		for i := range a {
			for _, run := range a[i].BuggyRuns {
				got += run[1]
			}
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Errorf("%s: unit %d reloads as %+v, was %+v", key, i, b[i], a[i])
			}
		}
		if got != want {
			t.Errorf("%s: %d buggy schedules in runs, the version-1 file lists %d", key, got, want)
		}
		total += want
	}
	if total == 0 {
		t.Fatal("no pinned unit result lists a buggy offset: the round trip converted nothing")
	}

	for key, raw := range goldenFiles(t, "golden_checkpoint.json") {
		old := bytes.Replace(raw, []byte(`"version": 2`), []byte(`"version": 1`), 1)
		a, err := Resume(loadGolden(t, old), ckCfg(t, "CS.account_bad", 100))
		if err != nil {
			t.Fatalf("%s: Resume(version 1): %v", key, err)
		}
		b, err := Resume(loadGolden(t, raw), ckCfg(t, "CS.account_bad", 100))
		if err != nil {
			t.Fatalf("%s: Resume(version 2): %v", key, err)
		}
		requireSameResult(t, key+" resumed from version 1", b, a)
	}
}

// TestCheckpointBadRunsRejected: buggy runs that overlap, are out of order or
// run past their unit's schedules make a version-2 file fail to load, on a
// done unit and on a parked unit's partial tallies alike.
func TestCheckpointBadRunsRejected(t *testing.T) {
	for key, raw := range goldenFiles(t, "bad_runs_checkpoint.json") {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "buggy run") {
			t.Errorf("%s: LoadCheckpoint error %v, want a buggy-run error", key, err)
		}
	}
}
