package explore

import (
	"fmt"
	"strings"
	"testing"

	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// TestFreshNodeAllocatesNothing: a fresh IDB node at a scheduling point with
// 100 enabled threads fills its order and costs from recycled buffers and
// allocates nothing, and its costs are 0…99 in canonical order: the delay
// cost of a choice is its position. Under preemption bounding and plain DFS
// likewise.
func TestFreshNodeAllocatesNothing(t *testing.T) {
	enabled := make([]sched.ThreadID, 100)
	for i := range enabled {
		enabled[i] = sched.ThreadID(i)
	}
	ctx := vthread.Context{Enabled: enabled, Last: 41, LastEnabled: true, NumThreads: 100, SelectOf: sched.NoThread}
	for _, model := range []CostModel{CostDelays, CostPreemptions, CostNone} {
		e := newEngine(Config{}, model, 0)
		node := func() {
			e.running = 0
			if got := e.push(ctx); got != 41 {
				t.Fatalf("%v: fresh node takes %d first, want the continuation 41", model, got)
			}
			if model == CostDelays {
				nd := &e.stack[0]
				for i, c := range nd.costs {
					if c != i || nd.order[i] != sched.ThreadID((41+i)%100) {
						t.Fatalf("delays: choice %d is T%d at cost %d", i, nd.order[i], c)
					}
				}
			}
			// Bound 0 prunes every alternative (DFS walks through them), so
			// this pops the node and recycles its buffers.
			for e.backtrack() {
			}
		}
		if n := testing.AllocsPerRun(50, node); n != 0 {
			t.Errorf("%v: a fresh 100-thread node allocates %v times with warm buffers", model, n)
		}
		// With no buffer to recycle the node costs its two slices, each
		// allocated at the size of the point (one allocation; two under the
		// race detector's build of slices.Grow), not grown to it in eight.
		if n := testing.AllocsPerRun(50, func() {
			e.freeOrders, e.freeCosts = e.freeOrders[:0], e.freeCosts[:0]
			node()
		}); n > 4 {
			t.Errorf("%v: a fresh 100-thread node allocates %v times with cold buffers, want 2", model, n)
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
		e := newEngine(Config{}, c.model, 5)
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
