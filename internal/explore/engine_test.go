package explore

import (
	"fmt"
	"strings"
	"testing"

	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// TestFreshNodeAllocatesNothing: a fresh IDB node at a scheduling point with
// 100 enabled threads fills its order into the engine's arena and allocates
// nothing once the arena has grown, and its costs are 0…99 in canonical
// order: the delay cost of a choice is its position. Under preemption bounding
// and plain DFS likewise. A new engine on a spare's storage allocates only
// itself.
func TestFreshNodeAllocatesNothing(t *testing.T) {
	enabled := make([]sched.ThreadID, 100)
	for i := range enabled {
		enabled[i] = sched.ThreadID(i)
	}
	ctx := vthread.Context{Enabled: enabled, Last: 41, LastEnabled: true, NumThreads: 100, SelectOf: sched.NoThread}
	for _, model := range []CostModel{CostDelays, CostPreemptions, CostNone} {
		e := newEngine(Config{}, model, 100, nil)
		node := func() {
			e.running = 0
			if got := e.Choose(ctx); got != 41 {
				t.Fatalf("%v: fresh node takes %d first, want the continuation 41", model, got)
			}
			// Every alternative fits bound 100, so the node stays open — the
			// Context has no World to take a NoResume mark — until this has
			// walked through them and popped it.
			for e.backtrack() {
			}
		}
		if e.Choose(ctx); model == CostDelays {
			nd := &e.stack[0]
			for i, c := range e.costs(nd) {
				if c != i || e.orders[nd.off+i] != sched.ThreadID((41+i)%100) {
					t.Fatalf("delays: choice %d is T%d at cost %d", i, e.orders[nd.off+i], c)
				}
			}
		}
		for e.backtrack() {
		}
		if n := testing.AllocsPerRun(50, node); n != 0 {
			t.Errorf("%v: a fresh 100-thread node allocates %v times with a grown arena", model, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			e = newEngine(Config{}, model, 100, e)
			node()
		}); n > 1 {
			t.Errorf("%v: a fresh node of a new engine on a spare's storage allocates %v times, want the engine alone", model, n)
		}
	}
}

// TestCheckCostFires: the engine's running cost is held against the World's
// own online PC/DC after every execution; a disagreement is a panic, not a
// wrong count. (Every bounded search in this package runs the check on
// every execution; this pins that it can fail.)
func TestCheckCostFires(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	for _, c := range []struct {
		model CostModel
		out   vthread.Outcome
		want  string
	}{
		{CostDelays, vthread.Outcome{DC: 2, PC: 3}, "engine DC 3 != world DC 2"},
		{CostPreemptions, vthread.Outcome{DC: 3, PC: 1}, "engine PC 3 != world PC 1"},
	} {
		e := newEngine(Config{}, c.model, 5, nil)
		e.running = 3
		if msg := panicOf(func() { e.checkCost(&c.out) }); !strings.Contains(msg, c.want) {
			t.Errorf("%v: checkCost panic %q, want %q", c.model, msg, c.want)
		}
		agree := vthread.Outcome{DC: 3, PC: 3}
		if msg := panicOf(func() { e.checkCost(&agree) }); msg != "<nil>" {
			t.Errorf("%v: checkCost panicked on agreeing costs: %s", c.model, msg)
		}
	}
}

// TestBoundedSnapshotsWhereItBranches: a bounded search saves prefix states
// only at points a later execution can branch at (Context.NoResume). On
// radbench.bug1 at the study's limit few of a 12,000-step execution's points
// can: IPB never leaves bound 0, where a point branches only when the last
// thread has stopped, and nothing branches below IDB's one delay. IPB and IDB
// take at most 2 snapshots an execution once the first execution of each
// pass is set aside, which saves along the whole length it can branch at,
// one state per gap (about 780 at IDB's bound 1, whose first execution spends
// no delay). Both return the Result of the same search with every execution
// run from the initial state.
func TestBoundedSnapshotsWhereItBranches(t *testing.T) {
	if runHook != nil {
		t.Skip("the suite is running from scratch (SCTBENCH_COLD_RUNS): no snapshot is taken")
	}
	t.Cleanup(func() { runHook = nil })
	for _, tech := range []Technique{IPB, IDB} {
		var pass vthread.Chooser // a pass is one engine, one chooser
		var execs, snaps int64
		runHook = func(cfg Config, ex *vthread.Executor, c vthread.Chooser, shared int) *vthread.Outcome {
			before := ex.StepStats().Snapshots
			out := ex.RunFrom(c, cfg.Program, shared)
			if c == pass {
				execs, snaps = execs+1, snaps+ex.StepStats().Snapshots-before
			}
			pass = c
			return out
		}
		got := Run(tech, ckCfg(t, "radbench.bug1", 400))
		runHook = nil
		if execs < 390 || snaps > 2*execs {
			t.Errorf("%v: %d snapshots over the %d executions that are not a pass's first, want at most 2 an execution",
				tech, snaps, execs)
		}
		want := cold(func() *Result { return Run(tech, ckCfg(t, "radbench.bug1", 400)) })
		requireSameResult(t, tech.String(), want, got)
	}
}
