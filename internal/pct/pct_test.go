package pct

import (
	"slices"
	"testing"

	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// depth2Bug is a bug of PCT depth 2: one ordering constraint beyond the
// initial priority order (the worker's store must land between the
// checker's two loads).
func depth2Bug() vthread.Runnable {
	return vthread.Program(func(t0 *vthread.Thread) {
		x := t0.NewVar("x", 0)
		w := t0.Spawn(func(tw *vthread.Thread) {
			x.Store(tw, 1)
		})
		a := x.Load(t0)
		for i := 0; i < 6; i++ {
			t0.Yield()
		}
		b := x.Load(t0)
		t0.Assert(a == b, "torn observation: %d then %d", a, b)
		t0.Join(w)
	})
}

func TestPCTFindsDepth2Bug(t *testing.T) {
	res := Run(Config{Program: depth2Bug, Runs: 2000, Depth: 2, Seed: 1})
	if !res.BugFound {
		t.Fatal("PCT d=2 missed a depth-2 bug in 2000 runs")
	}
}

func TestPCTNoFalsePositives(t *testing.T) {
	clean := func() vthread.Runnable {
		return vthread.Program(func(t0 *vthread.Thread) {
			m := t0.NewMutex("m")
			v := t0.NewVar("v", 0)
			w := t0.Spawn(func(tw *vthread.Thread) {
				m.Lock(tw)
				v.Add(tw, 1)
				m.Unlock(tw)
			})
			m.Lock(t0)
			v.Add(t0, 1)
			m.Unlock(t0)
			t0.Join(w)
			t0.Assert(v.Load(t0) == 2, "v=%d", v.Load(t0))
		})
	}
	res := Run(Config{Program: clean, Runs: 500, Depth: 3, Seed: 2})
	if res.BugFound {
		t.Fatalf("false positive: %v", res.Failure)
	}
	if res.Runs != 500 {
		t.Fatalf("runs = %d, want 500", res.Runs)
	}
}

func TestPCTIsDeterministicPerSeed(t *testing.T) {
	a := Run(Config{Program: depth2Bug, Runs: 200, Depth: 2, Seed: 7})
	b := Run(Config{Program: depth2Bug, Runs: 200, Depth: 2, Seed: 7})
	if a.BugFound != b.BugFound || a.RunsToFirstBug != b.RunsToFirstBug || a.BuggyRuns != b.BuggyRuns {
		t.Fatalf("same seed, different campaign: %+v vs %+v", a, b)
	}
}

func TestPCTRunsHighestPriorityEnabled(t *testing.T) {
	// A single chooser must always pick an enabled thread (the World
	// enforces this with a panic; surviving many runs is the check) and
	// must not livelock on blocking programs.
	p := func() vthread.Runnable {
		return vthread.Program(func(t0 *vthread.Thread) {
			s := t0.NewSem("s", 0)
			w := t0.Spawn(func(tw *vthread.Thread) { s.V(tw) })
			s.P(t0)
			t0.Join(w)
		})
	}
	res := Run(Config{Program: p, Runs: 300, Depth: 3, Seed: 3})
	if res.BugFound {
		t.Fatalf("spurious failure: %v", res.Failure)
	}
}

// TestPCTDemotionsKeepTheirOrder pins the change-point rule on three
// threads that stay enabled: demoted threads rank below every base
// priority and below every earlier demotion (the later demotion runs
// last, whatever the thread ids), and two change points drawn on the same
// step both fire.
func TestPCTDemotionsKeepTheirOrder(t *testing.T) {
	choose := func(c *Chooser, enabled ...sched.ThreadID) sched.ThreadID {
		return c.Choose(vthread.Context{Enabled: enabled, SelectOf: vthread.NoThread})
	}
	picks := func(c *Chooser, n int) []sched.ThreadID {
		var got []sched.ThreadID
		for i := 0; i < n; i++ {
			got = append(got, choose(c, 0, 1, 2))
		}
		return got
	}

	c := New(1, 3, 10)
	c.prio = []int{20, 30, 10}
	c.changePoints = []int{1, 2}
	// Step 0 runs thread 1; step 1 demotes it, step 2 demotes thread 0.
	if got, want := picks(c, 3), []sched.ThreadID{1, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("picks = %v, want %v", got, want)
	}
	// With thread 2 gone the two demoted threads compete: thread 1 was
	// demoted first, so it outranks thread 0 although its id is higher.
	if got := choose(c, 0, 1); got != 1 {
		t.Errorf("after demoting 1 then 0, chose %d of {0, 1}: the later demotion must run last", got)
	}

	c = New(1, 3, 10)
	c.prio = []int{30, 20, 10}
	c.changePoints = []int{1, 1}
	if got, want := picks(c, 2), []sched.ThreadID{0, 2}; !slices.Equal(got, want) {
		t.Errorf("two change points on step 1: picks = %v, want %v (both must fire)", got, want)
	}
	if got := choose(c, 0, 1); got != 0 {
		t.Errorf("after demoting 0 then 1 on one step, chose %d of {0, 1}, want 0", got)
	}
}
