package explore

// The canonical-merge contract — under forfeiture and under the budget —
// the early-stop predicate, and the distribution hooks' equivalence to the
// sequential drivers. MergeUnitStates is the one place where duplicate,
// panicked or abandoned work is reconciled and the one place Limit is
// applied, so its properties — canonical order, exact budget, forfeited
// counts dropped but honest work kept — are pinned directly here; the
// end-to-end distributed equivalence (coordinator, leases, failover) lives
// in internal/dist.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"sctbench/internal/vthread"
)

// TestMergeUnitsForfeited pins the forfeiture contract: a panicked unit's
// schedule counts, buggy runs and witness are dropped, its run statistics
// and work tallies still fold in, and the panic surfaces as WorkerPanics.
func TestMergeUnitsForfeited(t *testing.T) {
	units := []*UnitResultState{
		// Arrives out of canonical order: key [2] sorts after [1 0].
		{Key: []int{2}, Schedules: 4, BuggyRuns: [][2]int{{2, 1}},
			Failure:    &vthread.Failure{Kind: vthread.FailAssert, Message: "late"},
			Executions: 4},
		// Forfeited: panicked mid-unit with 3 schedules and a "bug" that
		// must NOT be reported.
		{Key: []int{1, 0}, Schedules: 3, BuggyRuns: [][2]int{{1, 1}},
			Failure:  &vthread.Failure{Kind: vthread.FailAssert, Message: "forfeited"},
			PanicMsg: "worker died", Executions: 5, Steps: 50, Aborted: 1,
			RunStats: RunStats{MaxEnabled: 7, SchedPts: 9, Threads: 5}},
		// The canonical head: the donor's nil key sorts first.
		{Key: nil, Schedules: 2, Executions: 2, Steps: 8},
	}
	m := MergeUnitStates(units, 100)
	if m.Schedules != 6 {
		t.Errorf("schedules = %d, want 6 (forfeited unit's 3 dropped)", m.Schedules)
	}
	if m.WorkerPanics != 1 || m.PanicMsg != "worker died" {
		t.Errorf("workerPanics = %d (%q), want 1 (worker died)", m.WorkerPanics, m.PanicMsg)
	}
	// The surviving bug is at canonical offset 2 (donor) + 2 (within its
	// own unit) = 4; the forfeited unit's earlier "bug" must not win.
	if !m.BugFound || m.FirstBugOffset != 4 || m.Failure.Message != "late" {
		t.Errorf("bug = %v at %d (%+v), want offset 4 from the surviving unit",
			m.BugFound, m.FirstBugOffset, m.Failure)
	}
	if m.Buggy != 1 {
		t.Errorf("buggy = %d, want 1", m.Buggy)
	}
	// Honest work: the forfeited unit's executions/steps/aborts and run
	// statistics describe executions that really happened.
	if m.Executions != 11 || m.Steps != 58 || m.Aborted != 1 {
		t.Errorf("work = %d execs / %d steps / %d aborts, want 11/58/1",
			m.Executions, m.Steps, m.Aborted)
	}
	if m.MaxEnabled != 7 || m.SchedPts != 9 || m.Threads != 5 {
		t.Errorf("RunStats = %d/%d/%d, want 7/9/5 (folded from the forfeited unit)",
			m.MaxEnabled, m.SchedPts, m.Threads)
	}
}

// TestMergeUnitsForfeitedBudget: the budget still truncates canonically
// when a forfeited unit sits between surviving ones — forfeited schedules
// do not consume budget.
func TestMergeUnitsForfeitedBudget(t *testing.T) {
	units := []*UnitResultState{
		{Key: nil, Schedules: 3},
		{Key: []int{1}, Schedules: 5, PanicMsg: "gone"},
		{Key: []int{2}, Schedules: 4, BuggyRuns: [][2]int{{4, 1}}},
	}
	m := MergeUnitStates(units, 5)
	if m.Schedules != 5 || !m.Truncated {
		t.Errorf("schedules = %d truncated = %v, want 5/true", m.Schedules, m.Truncated)
	}
	// The last unit's bug sits at its offset 4, i.e. canonical 3+4 = 7,
	// beyond the budget of 5: it must not be reported.
	if m.BugFound {
		t.Errorf("bug beyond the budget cut was reported")
	}
	if m.WorkerPanics != 1 {
		t.Errorf("workerPanics = %d, want 1", m.WorkerPanics)
	}
}

// TestMergeUnitsPastTheCut: units wholly behind the budget cut describe
// executions a sequential search would never have reached — their work is
// reported, their statistics, bugs and pruning flags are not.
func TestMergeUnitsPastTheCut(t *testing.T) {
	units := []*UnitResultState{
		{Key: nil, Schedules: 5, Executions: 5, RunStats: RunStats{MaxEnabled: 2, SchedPts: 3, Threads: 3}},
		{Key: []int{1}, Schedules: 4, BuggyRuns: [][2]int{{1, 1}}, Pruned: true, Executions: 6,
			RunStats: RunStats{MaxEnabled: 9, SchedPts: 9, Threads: 9}},
	}
	m := MergeUnitStates(units, 5)
	if m.Schedules != 5 || !m.Truncated || m.BugFound || m.Pruned {
		t.Errorf("merge = %+v, want 5 schedules, truncated, no bug, not pruned", m)
	}
	if m.Executions != 11 {
		t.Errorf("executions = %d, want 11 (work past the cut is still work)", m.Executions)
	}
	if (m.RunStats != RunStats{MaxEnabled: 2, SchedPts: 3, Threads: 3}) {
		t.Errorf("RunStats = %+v, want the first unit's only", m.RunStats)
	}
}

// TestBudgetReached is the table of the early-stop predicate: a pass may
// end with units outstanding only when the finished units before the
// earliest live one already hold the whole budget.
func TestBudgetReached(t *testing.T) {
	fin := func(n int, key ...int) *UnitResultState { return &UnitResultState{Key: key, Schedules: n} }
	forfeited := func(n int, key ...int) *UnitResultState {
		return &UnitResultState{Key: key, Schedules: n, PanicMsg: "gone"}
	}
	cases := []struct {
		name   string
		done   []*UnitResultState
		live   [][]int
		budget int
		want   bool
	}{
		{"front holds the budget", []*UnitResultState{fin(6), fin(4, 1)}, [][]int{{2}}, 10, true},
		{"front one short", []*UnitResultState{fin(6), fin(3, 1)}, [][]int{{2}}, 10, false},
		// The head of the tree is still live: whatever finished behind it
		// says nothing about the first schedules.
		{"gap before a finished unit", []*UnitResultState{fin(100, 1), fin(100, 2)}, [][]int{nil}, 10, false},
		{"gap in the middle", []*UnitResultState{fin(5), fin(100, 2)}, [][]int{{1}, {3}}, 10, false},
		{"earliest live unit is not the first listed", []*UnitResultState{fin(10), fin(100, 2)}, [][]int{{3}, {1}}, 10, true},
		// A forfeited unit holds no schedules, wherever it sits.
		{"forfeited unit in the prefix", []*UnitResultState{fin(6), forfeited(50, 1), fin(3, 2)}, [][]int{{3}}, 10, false},
		{"forfeited unit skipped, rest suffices", []*UnitResultState{fin(6), forfeited(50, 1), fin(4, 2)}, [][]int{{3}}, 10, true},
		// A unit that stopped itself at the budget fills the front alone —
		// but only if nothing before it is outstanding.
		{"self-limited unit at the head", []*UnitResultState{fin(10)}, [][]int{{1}, {2}}, 10, true},
		{"self-limited unit behind a live one", []*UnitResultState{fin(10, 1)}, [][]int{nil}, 10, false},
		{"a donee sorts after its live donor", []*UnitResultState{fin(10, 0, 1)}, [][]int{{0}}, 10, false},
		{"no live units, budget held", []*UnitResultState{fin(6), fin(4, 1)}, nil, 10, true},
		{"no live units, under budget", []*UnitResultState{fin(6), fin(3, 1)}, nil, 10, false},
		{"nothing finished", nil, [][]int{nil}, 10, false},
	}
	for _, tc := range cases {
		if got := BudgetReached(tc.done, tc.live, tc.budget); got != tc.want {
			t.Errorf("%s: BudgetReached = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// distRun explores cfg's whole space through the distribution hooks:
// shard into want units, run every unit to completion via RunUnit, merge
// canonically, and fold into a Result exactly as the coordinator does for
// a single-pass technique.
func distRun(t *testing.T, cfg Config, tech Technique, want int) *Result {
	t.Helper()
	set, err := ShardTree(cfg, tech, 0, want)
	if err != nil {
		t.Fatalf("ShardTree: %v", err)
	}
	done := make([]*UnitResultState, 0, len(set.Done)+len(set.Units))
	for i := range set.Done {
		done = append(done, &set.Done[i])
	}
	for i := range set.Units {
		ur, err := RunUnit(cfg, &set.Units[i], cfg.Limit, nil)
		if err != nil {
			t.Fatalf("RunUnit(%v): %v", set.Units[i].Key, err)
		}
		if ur.Done == nil {
			t.Fatalf("RunUnit(%v): no result", set.Units[i].Key)
		}
		done = append(done, ur.Done)
	}
	m := MergeUnitStates(done, cfg.Limit)
	r := &Result{Technique: tech}
	m.FoldInto(r, 0)
	r.Schedules = m.Schedules
	if m.Truncated || m.Schedules >= cfg.Limit {
		r.LimitHit = true
		r.Stopped = StopLimit
	} else if m.WorkerPanics == 0 {
		r.Complete = true
	}
	return r
}

// TestDistHooksEquivalence: shard + per-unit RunUnit + canonical merge is
// bit-identical to the sequential driver, however many units the tree was
// cut into — on a completed DFS in every field, and under a truncating
// limit (each unit stops at its own budget, the merge applies the exact
// one) in every field but the work the units performed behind the cut.
func TestDistHooksEquivalence(t *testing.T) {
	for _, limit := range []int{20000, 60} {
		for _, name := range ckBenchNames {
			for _, want := range []int{1, 2, 5} {
				sub := fmt.Sprintf("%s/units=%d", name, want)
				if limit == 60 {
					sub = fmt.Sprintf("%s/limit=60/units=%d", name, want)
				}
				t.Run(sub, func(t *testing.T) {
					base := RunDFS(ckCfg(t, name, limit))
					got := distRun(t, ckCfg(t, name, limit), DFS, want)
					if base.Complete {
						requireSameResult(t, "dist", base, got)
					} else {
						requireSameResult(t, "dist (truncated)", maskWorkMetrics(base), maskWorkMetrics(got))
					}
				})
			}
		}
	}
}

// TestDistHooksParkResume: parking a unit after every execution and
// re-dispatching the parked frontier loses nothing — the final merged
// result is still bit-identical to the sequential run.
func TestDistHooksParkResume(t *testing.T) {
	const limit = 20000
	cfg := ckCfg(t, "CS.account_bad", limit)
	base := RunDFS(cfg)
	if !base.Complete {
		t.Fatalf("baseline did not complete; raise the limit")
	}

	shardCfg := ckCfg(t, "CS.account_bad", limit)
	set, err := ShardTree(shardCfg, DFS, 0, 3)
	if err != nil {
		t.Fatalf("ShardTree: %v", err)
	}
	var done []*UnitResultState
	for i := range set.Done {
		done = append(done, &set.Done[i])
	}
	for i := range set.Units {
		us := &set.Units[i]
		for hops := 0; ; hops++ {
			if hops > base.Executions+10 {
				t.Fatalf("unit %v never completed", set.Units[i].Key)
			}
			// Park at the fourth poll: three executions per dispatch.
			polls := 0
			ur, err := RunUnit(shardCfg, us, 0, func() UnitAction {
				polls++
				if polls > 3 {
					return UnitPark
				}
				return UnitContinue
			})
			if err != nil {
				t.Fatalf("RunUnit: %v", err)
			}
			if ur.Done != nil {
				done = append(done, ur.Done)
				break
			}
			us = ur.Parked
		}
	}
	m := MergeUnitStates(done, shardCfg.Limit)
	r := &Result{Technique: DFS}
	m.FoldInto(r, 0)
	r.Schedules = m.Schedules
	if m.WorkerPanics == 0 && !m.Truncated {
		r.Complete = true
	}
	requireSameResult(t, "park-resume", base, r)
}

// TestDistHooksDPORVerdict: distributed DPOR keeps the pool's contract —
// verdict and completeness survive sharding even though duplicated
// reversals may inflate counts.
func TestDistHooksDPORVerdict(t *testing.T) {
	for _, name := range ckBenchNames {
		t.Run(name, func(t *testing.T) {
			cfg := ckCfg(t, name, 500)
			base := RunDPOR(cfg)
			got := distRun(t, ckCfg(t, name, 500), DPOR, 4)
			if base.BugFound != got.BugFound {
				t.Errorf("BugFound = %v, want %v", got.BugFound, base.BugFound)
			}
			if base.Complete != got.Complete {
				t.Errorf("Complete = %v, want %v", got.Complete, base.Complete)
			}
		})
	}
}

// TestResumeAllUnitsDone: a checkpoint may carry only completed units —
// the stop landed right after the last unit finished, before the pass was
// merged (a drained coordinator writes exactly this shape). Resuming it
// must terminate (regression: addJobUnits never closed a born-drained
// job's done channel, hanging waitTree forever) and fold the done units
// into the sequential result.
func TestResumeAllUnitsDone(t *testing.T) {
	const limit = 20000
	base := RunDFS(ckCfg(t, "CS.account_bad", limit))
	if !base.Complete {
		t.Fatalf("baseline did not complete; raise the limit")
	}

	cfg := ckCfg(t, "CS.account_bad", limit)
	set, err := ShardTree(cfg, DFS, 0, 3)
	if err != nil {
		t.Fatalf("ShardTree: %v", err)
	}
	ps := &PoolState{}
	ps.Done = append(ps.Done, set.Done...)
	for i := range set.Units {
		ur, err := RunUnit(cfg, &set.Units[i], limit, nil)
		if err != nil || ur.Done == nil {
			t.Fatalf("RunUnit(%v): %+v, %v", set.Units[i].Key, ur, err)
		}
		ps.Done = append(ps.Done, *ur.Done)
	}
	for i := range ps.Done {
		ps.Execs += int64(ps.Done[i].Executions)
		ps.Steps += ps.Done[i].Steps
		ps.Aborts += int64(ps.Done[i].Aborted)
	}
	ps.OwnExecs = ps.Execs
	ck := &Checkpoint{Version: CheckpointVersion, Technique: "DFS",
		Limit: limit, Seed: cfg.Seed, MaxExecutions: DefaultMaxExecutions,
		Result: &Result{Technique: DFS}, Pool: ps}

	rcfg := ckCfg(t, "CS.account_bad", limit)
	type out struct {
		r   *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		r, err := Resume(ck, rcfg)
		ch <- out{r, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("Resume: %v", o.err)
		}
		if !o.r.Complete || o.r.Schedules != base.Schedules ||
			o.r.BugFound != base.BugFound || o.r.Executions != base.Executions {
			t.Errorf("resumed all-done checkpoint diverged: complete=%v schedules=%d "+
				"bug=%v execs=%d, want %v/%d/%v/%d", o.r.Complete, o.r.Schedules,
				o.r.BugFound, o.r.Executions,
				base.Complete, base.Schedules, base.BugFound, base.Executions)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Resume hung on an all-done checkpoint")
	}
}

// TestMergeRunsMatchOffsets is the property test of the run-length form:
// random buggy-offset sets, split into random units (some forfeited), kept as
// runs by addBuggy exactly as the unit step keeps them, must merge — at every
// budget cut — to what a plain walk over the offsets gives: the schedules
// kept, how many of them are buggy, the first buggy one and whether the cut
// truncated. BudgetReached, asked with a random set of units still live, must
// agree with the same walk.
func TestMergeRunsMatchOffsets(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 2000; iter++ {
		// The pass's schedules in canonical order: buggy or not.
		total := rng.IntN(40)
		density := rng.Float64()
		buggy := make([]bool, total)
		for i := range buggy {
			buggy[i] = rng.Float64() < density
		}
		// Cut them into units with ascending keys; a forfeited unit's
		// schedules are not the pass's, so the reference skips them.
		type part struct {
			u         *UnitResultState
			forfeited bool
			live      bool
		}
		var parts []part
		var flat []bool // the unforfeited schedules, the reference's view
		for start, k := 0, 0; start < total || k == 0; k++ {
			n := min(total-start, rng.IntN(8))
			u := &UnitResultState{Key: []int{k}, Schedules: n}
			for off := 1; off <= n; off++ {
				if buggy[start+off-1] {
					u.addBuggy(off)
				}
			}
			if err := u.CheckBuggyRuns(); err != nil {
				t.Fatalf("iteration %d: addBuggy made bad runs %v: %v", iter, u.BuggyRuns, err)
			}
			for i := 1; i < len(u.BuggyRuns); i++ {
				if prev := u.BuggyRuns[i-1]; prev[0]+prev[1] == u.BuggyRuns[i][0] {
					t.Fatalf("iteration %d: runs %v are not maximal", iter, u.BuggyRuns)
				}
			}
			p := part{u: u, forfeited: rng.IntN(8) == 0, live: rng.IntN(4) == 0}
			if p.forfeited {
				u.PanicMsg = "gone"
			} else {
				flat = append(flat, buggy[start:start+n]...)
			}
			parts = append(parts, p)
			start += n
		}
		shuffled := make([]*UnitResultState, len(parts))
		for i, j := range rng.Perm(len(parts)) {
			shuffled[i] = parts[j].u
		}

		for budget := 1; budget <= len(flat)+2; budget++ {
			kept := min(budget, len(flat))
			wantBuggy, wantFirst := 0, 0
			for i, b := range flat[:kept] {
				if b {
					wantBuggy++
					if wantFirst == 0 {
						wantFirst = i + 1
					}
				}
			}
			m := MergeUnitStates(shuffled, budget)
			if m.Schedules != kept || m.Buggy != wantBuggy || m.FirstBugOffset != wantFirst ||
				m.BugFound != (wantFirst > 0) || m.Truncated != (len(flat) > budget) {
				t.Fatalf("iteration %d, budget %d: merge kept %d (%d buggy, first %d, truncated %v), "+
					"the offsets say %d (%d buggy, first %d, truncated %v)", iter, budget,
					m.Schedules, m.Buggy, m.FirstBugOffset, m.Truncated,
					kept, wantBuggy, wantFirst, len(flat) > budget)
			}

			var done []*UnitResultState
			var live [][]int
			held := 0 // the unforfeited schedules before the first live unit
			front := true
			for _, p := range parts {
				if p.live {
					live = append(live, p.u.Key)
					front = false
					continue
				}
				done = append(done, p.u)
				if front && !p.forfeited {
					held += p.u.Schedules
				}
			}
			slices.Reverse(done)
			if got := BudgetReached(done, live, budget); got != (held >= budget) {
				t.Fatalf("iteration %d, budget %d: BudgetReached = %v, the front holds %d", iter, budget, got, held)
			}
		}
	}
}
