package explore

// Differential oracle for the POR walker's fresh nodes: carried ≡ queried.
//
// push takes every footprint it can from the parent instead of asking
// ctx.PendingOf (dporEngine.footprints), and keeps sleep sets as slices of
// footprint references instead of thread-keyed maps. Through the
// dporPushCheck hook every fresh node of every engine in a test is compared
// with a fresh query of each of its threads, and its sleep set with
// refChildSleep below — the map computation the slices replaced — run
// alongside on maps of its own.

import (
	"slices"
	"sync"
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// refSleep is a sleep set the way the engine kept it before: one footprint
// value per sleeping thread.
type refSleep map[sched.ThreadID]vthread.PendingInfo

// refChildSleep is the former dporChildSleep: it fills dst with the sleep
// set a child of parent inherits, given parent's own sleep set.
func refChildSleep(parent *dporNode, parentSleep, dst refSleep) {
	takenInfo := *parent.infos[parent.idx]
	if parent.selOf != vthread.NoThread {
		for t, info := range parentSleep {
			if info.Independent(&takenInfo) {
				dst[t] = info
			}
		}
		return
	}
	taken := parent.order[parent.idx]
	for t, info := range parentSleep {
		if t != taken && info.Independent(&takenInfo) {
			dst[t] = info
		}
	}
	for k, f := range parent.flags {
		if f&dporDone != 0 && parent.infos[k].Independent(&takenInfo) {
			dst[parent.order[k]] = *parent.infos[k]
		}
	}
}

// carriedOracleStats is what the hook saw, for tests that must prove they
// reached the case they target.
type carriedOracleStats struct {
	mu            sync.Mutex
	nodes         int // fresh nodes checked (pushed or aborted)
	carried       int // footprints taken from an ancestor
	volatile      int // footprints queried only because PendingStable said so
	disagreements int
	// ref holds each engine's reference sleep sets by stack depth.
	ref map[*dporEngine][]refSleep
}

// withCarriedOracle installs the fresh-node check for the rest of the test.
func withCarriedOracle(t *testing.T) *carriedOracleStats {
	t.Helper()
	st := &carriedOracleStats{ref: map[*dporEngine][]refSleep{}}
	dporPushCheck = func(e *dporEngine, ctx vthread.Context, nd *dporNode, aborted bool) {
		st.mu.Lock()
		defer st.mu.Unlock()
		n := len(e.stack) // nd is the slot past the top, pushed or not
		bad := func(format string, args ...any) {
			if st.disagreements++; st.disagreements <= 5 {
				t.Errorf("execution %d, depth %d: "+format, append([]any{e.executions, n}, args...)...)
			}
		}
		st.nodes++

		// Footprints: each equals a fresh query; count where they came from.
		if aborted != (len(nd.infos) == 0) || (!aborted && len(nd.infos) != len(nd.order)) {
			bad("%d footprints for %d choices (aborted %v)", len(nd.infos), len(nd.order), aborted)
			return
		}
		var src *dporNode
		for d := n - 1; d >= 0 && src == nil && nd.selOf == vthread.NoThread; d-- {
			if e.stack[d].selOf == vthread.NoThread {
				src = &e.stack[d]
			}
		}
		for k, th := range nd.infos {
			want := ctx.PendingOf(nd.order[k])
			if !samePending(th, &want) {
				bad("choice %d (thread %d): footprint %+v, a fresh query says %+v",
					k, nd.order[k], pendingToState(th), pendingToState(&want))
			}
			if !ownedBy(nd, th) {
				st.carried++
			} else if src != nil && nd.order[k] != src.order[src.idx] &&
				slices.Contains(src.order, nd.order[k]) && !ctx.PendingStable(nd.order[k]) {
				st.volatile++
			}
		}

		// Sleep set: the reference maps, seeded from the stack the engine
		// started with (restored or donated) and extended at every push.
		ref := st.ref[e]
		if ref == nil {
			for i := range e.stack {
				ref = append(ref, sleepMap(e.stack[i].sleep))
			}
		}
		ref = ref[:min(len(ref), n)]
		// The map of the node this one replaces at depth n, if any, is free.
		var want refSleep
		if cap(ref) > n {
			want = ref[:n+1][n]
		}
		if want == nil {
			want = refSleep{}
		}
		clear(want)
		if n > 0 {
			refChildSleep(&e.stack[n-1], ref[n-1], want)
		}
		if !sameSleep(nd.sleep, want) {
			bad("sleep set %v, the map computation says %v", sleepToEntries(nd.sleep), want)
		}
		if nd.selOf == vthread.NoThread {
			for k, th := range nd.order {
				_, asleep := want[th]
				if asleep != (nd.flags[k]&dporAsleep != 0) {
					bad("choice %d (thread %d): asleep flag %v, sleep set says %v", k, th, !asleep, asleep)
				}
				if aborted && !asleep {
					bad("aborted with thread %d awake", th)
				}
			}
		}
		if !aborted {
			ref = append(ref, want)
		}
		st.ref[e] = ref
	}
	t.Cleanup(func() {
		dporPushCheck = nil
		if st.disagreements != 0 {
			t.Errorf("%d disagreements at %d fresh nodes", st.disagreements, st.nodes)
		}
	})
	return st
}

// ownedBy reports whether info lives in nd's own storage, i.e. was queried
// at nd rather than carried from an ancestor.
func ownedBy(nd *dporNode, info *vthread.PendingInfo) bool {
	for i := range nd.own {
		if &nd.own[i] == info {
			return true
		}
	}
	return false
}

func sleepMap(sleep []dporSleeper) refSleep {
	m := refSleep{}
	for _, s := range sleep {
		m[s.t] = *s.info
	}
	return m
}

// samePending compares two footprints field by field, objects in order.
func samePending(a, b *vthread.PendingInfo) bool {
	if a.IsAccess != b.IsAccess || a.Key != b.Key || a.IsWrite != b.IsWrite ||
		a.ReadOnly != b.ReadOnly || a.Opaque != b.Opaque || a.IsJoin != b.IsJoin ||
		a.JoinOf != b.JoinOf || a.Objects.Len() != b.Objects.Len() {
		return false
	}
	for k := 0; k < a.Objects.Len(); k++ {
		if a.Objects.Obj(k) != b.Objects.Obj(k) {
			return false
		}
	}
	return true
}

// sameSleep reports whether sleep lists each member of want once, with the
// same footprint, and nothing else.
func sameSleep(sleep []dporSleeper, want refSleep) bool {
	if len(sleep) != len(want) {
		return false
	}
	for i, s := range sleep {
		info, ok := want[s.t]
		if !ok || !samePending(s.info, &info) {
			return false
		}
		for _, o := range sleep[:i] {
			if o.t == s.t {
				return false
			}
		}
	}
	return true
}

// raceDetector is set in builds with the race detector (race_test.go).
var raceDetector bool

// ledgerSleepSetExecs is the ledger's pinned explore.sleepset.execs; its
// sleep-set searches are the first 15 of ledgerDPORSet.
const ledgerSleepSetExecs = 451896

// TestCarriedFootprintsLedgerSet runs the oracle over the complete sleep-set
// searches of the ledger's exhaustive_reduction workload (its DPOR searches
// run under it in TestDPOROracleLedgerSet).
func TestCarriedFootprintsLedgerSet(t *testing.T) {
	if testing.Short() {
		t.Skip("complete searches of the ledger's reduction set are not short")
	}
	if raceDetector {
		// The searches are sequential, so the detector has nothing to find,
		// and it would slow their 451,896 executions to over a minute of the
		// package's test timeout. TestDPOROracleLedgerSet runs the same check
		// on the ledger's DPOR searches, which share every line of push.
		t.Skip("sequential oracle; runs without the race detector")
	}
	st := withCarriedOracle(t)
	execs := 0
	for _, name := range ledgerDPORSet[:len(ledgerDPORSet)-1] {
		r := RunSleepSetDFS(benchCfg(t, name))
		if !r.Complete {
			t.Errorf("%s: sleep-set DFS did not complete", name)
		}
		execs += r.Executions
	}
	if execs != ledgerSleepSetExecs {
		t.Errorf("%d sleep-set executions over the ledger's set, the ledger pins %d", execs, ledgerSleepSetExecs)
	}
	if st.carried == 0 {
		t.Error("no footprint was carried")
	}
	t.Logf("%d fresh nodes, %d footprints carried", st.nodes, st.carried)
}

// cancelWhileDeriving cancels a context while another thread derives
// children from it: every child grows the subtree the pending Cancel's
// footprint covers, a change by a thread other than the canceller. No
// registry program derives a context while another thread cancels it.
func cancelWhileDeriving() vthread.Program {
	return func(t0 *vthread.Thread) {
		root := t0.WithCancel("root", nil)
		c := t0.Spawn(func(tc *vthread.Thread) { root.Cancel(tc) })
		d := t0.Spawn(func(td *vthread.Thread) {
			child := td.WithCancel("child", root)
			td.WithCancel("grandchild", child)
		})
		t0.Join(c)
		t0.Join(d)
	}
}

// TestCarriedFootprintsTimersAndContexts runs the oracle where footprints
// are volatile — the clock pseudo-thread's timer fire, a pending Cancel —
// under both walkers: over every registry program with timers or contexts,
// truncated by a limit, and over cancelWhileDeriving, complete. Each group
// must meet a volatile footprint where a stable one would have been carried.
func TestCarriedFootprintsTimersAndContexts(t *testing.T) {
	st := withCarriedOracle(t)
	for _, b := range bench.All() {
		if b.Suite != "GoTime" && b.Name != "goidiom.cancel_bad" {
			continue
		}
		cfg := benchCfg(t, b.Name)
		cfg.Limit, cfg.MaxExecutions = 3000, 3000
		RunSleepSetDFS(cfg)
		RunDPOR(cfg)
	}
	registry := st.volatile
	if registry == 0 {
		t.Error("no volatile footprint met in the registry programs")
	}
	for _, run := range []func(Config) *Result{RunSleepSetDFS, RunDPOR} {
		if r := run(Config{Program: cancelWhileDeriving()}); !r.Complete {
			t.Error("cancelWhileDeriving: search did not complete")
		}
	}
	if st.volatile == registry {
		t.Error("no volatile footprint met in cancelWhileDeriving")
	}
	t.Logf("%d fresh nodes, %d footprints carried, %d volatile ones queried (%d in the registry programs)",
		st.nodes, st.carried, st.volatile, registry)
}
