package explore

import (
	"testing"
	"testing/quick"

	"sctbench/internal/vthread"
)

// independentWorkers: k threads each touching only private state — every
// interleaving is equivalent, so sleep sets should collapse the whole
// space to a single schedule.
func independentWorkers(k, steps int) vthread.Program {
	return func(t0 *vthread.Thread) {
		bodies := make([]vthread.Program, k)
		for i := range bodies {
			i := i
			bodies[i] = func(tw *vthread.Thread) {
				v := tw.NewVar("private"+string(rune('a'+i)), 0)
				for s := 0; s < steps; s++ {
					v.Add(tw, 1)
				}
			}
		}
		t0.SpawnAll(bodies...)
	}
}

func TestSleepSetCollapsesIndependentThreads(t *testing.T) {
	dfs := RunDFS(Config{Program: independentWorkers(3, 2), Limit: 50000})
	ss := RunSleepSetDFS(Config{Program: independentWorkers(3, 2), Limit: 50000})
	if !dfs.Complete || !ss.Complete {
		t.Fatalf("incomplete: dfs=%v ss=%v", dfs.Complete, ss.Complete)
	}
	if ss.Schedules != 1 {
		t.Errorf("sleep sets explored %d schedules of fully independent threads, want 1 (DFS: %d)",
			ss.Schedules, dfs.Schedules)
	}
	if dfs.Schedules <= ss.Schedules {
		t.Errorf("no reduction: DFS %d vs sleep-set %d", dfs.Schedules, ss.Schedules)
	}
}

func TestSleepSetPreservesBugFinding(t *testing.T) {
	// Figure 1's bug must still be found, in no more schedules than DFS.
	dfs := RunDFS(Config{Program: figure1()})
	ss := RunSleepSetDFS(Config{Program: figure1()})
	if !ss.BugFound {
		t.Fatal("sleep-set DFS missed the Figure 1 bug")
	}
	if !ss.Complete {
		t.Fatal("sleep-set DFS did not exhaust the reduced space")
	}
	if ss.Schedules > dfs.Schedules {
		t.Errorf("sleep sets explored more than DFS: %d > %d", ss.Schedules, dfs.Schedules)
	}
}

func TestSleepSetFindsDeadlocks(t *testing.T) {
	program := func() vthread.Program {
		return func(t0 *vthread.Thread) {
			a := t0.NewMutex("a")
			b := t0.NewMutex("b")
			x := t0.Spawn(func(tw *vthread.Thread) {
				a.Lock(tw)
				b.Lock(tw)
				b.Unlock(tw)
				a.Unlock(tw)
			})
			y := t0.Spawn(func(tw *vthread.Thread) {
				b.Lock(tw)
				a.Lock(tw)
				a.Unlock(tw)
				b.Unlock(tw)
			})
			t0.Join(x)
			t0.Join(y)
		}
	}
	dfs := RunDFS(Config{Program: program()})
	ss := RunSleepSetDFS(Config{Program: program()})
	if !dfs.BugFound || !ss.BugFound {
		t.Fatalf("deadlock missed: dfs=%v ss=%v", dfs.BugFound, ss.BugFound)
	}
	if dfs.Failure.Kind != vthread.FailDeadlock || ss.Failure.Kind != vthread.FailDeadlock {
		t.Fatal("wrong failure kind")
	}
}

// Property: on random small programs, sleep-set DFS explores a subset of
// the schedule count, finds a bug iff DFS does, and remains complete when
// DFS is.
func TestPropertySleepSetSoundAndReducing(t *testing.T) {
	f := func(shape uint32) bool {
		dfs := RunDFS(Config{Program: genProgram(shape), Limit: 20000})
		if !dfs.Complete {
			return true
		}
		ss := RunSleepSetDFS(Config{Program: genProgram(shape), Limit: 20000})
		if !ss.Complete {
			t.Logf("shape %d: sleep-set incomplete where DFS completed", shape)
			return false
		}
		if ss.Schedules > dfs.Schedules {
			t.Logf("shape %d: sleep-set %d > DFS %d", shape, ss.Schedules, dfs.Schedules)
			return false
		}
		if ss.BugFound != dfs.BugFound {
			t.Logf("shape %d: bug disagreement ss=%v dfs=%v", shape, ss.BugFound, dfs.BugFound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingInfoIndependence(t *testing.T) {
	a := vthread.PendingInfo{Objects: vthread.NewFootprint("var/x")}
	b := vthread.PendingInfo{Objects: vthread.NewFootprint("var/x")}
	if a.Independent(&b) {
		t.Error("write/write on the same object reported independent")
	}
	ra := vthread.PendingInfo{Objects: vthread.NewFootprint("var/x"), ReadOnly: true}
	rb := vthread.PendingInfo{Objects: vthread.NewFootprint("var/x"), ReadOnly: true}
	if !ra.Independent(&rb) {
		t.Error("read/read on the same object reported dependent")
	}
	if ra.Independent(&b) {
		t.Error("read/write on the same object reported independent")
	}
	c := vthread.PendingInfo{Objects: vthread.NewFootprint("var/y")}
	if !a.Independent(&c) {
		t.Error("disjoint objects reported dependent")
	}
	none := vthread.PendingInfo{}
	if !none.Independent(&a) || !a.Independent(&none) {
		t.Error("object-free op reported dependent")
	}
}
