package explore

// Differential oracle for the DPOR race analysis: incremental ≡ whole-trace.
//
// dporEngine.analyze keeps its happens-before state with the stack and looks
// dependent steps up in a per-object index. wholeTraceAnalysis below is the
// analysis it replaced — clocks recomputed from step 0 on every execution,
// dependent steps found by testing every earlier step's footprint — kept
// here as the reference. Through the dporCheck hook every analysis of every
// engine in a test (sequential, pool worker, split donee, resumed) is
// compared with it on the same stack: each live node's backtrack flags,
// every clock row, and each thread's latest and spawning step.

import (
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"sctbench/internal/faultinject"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// wholeTraceObj is the per-object access state of one whole-trace pass: the
// last write step and the reads since it.
type wholeTraceObj struct {
	lastWrite int
	reads     []int
}

// wholeTraceAnalysis race-analyses stack from step 0: a forward
// happens-before computation with vector clocks over the executed steps'
// footprints, and, for every step at depth analyzeFrom or deeper, a backward
// scan over all earlier steps for dependent-and-concurrent ones by other
// threads. It returns the clock rows (nt wide) and each thread's latest and
// spawning step, and sets, in backtrack[j], the flags the races found add at
// node j; it does not touch the nodes.
func wholeTraceAnalysis(stack []dporNode, analyzeFrom, nt int, backtrack [][]bool) (vc [][]int32, prevOf, spawnOf []int32) {
	n := len(stack)
	vc = make([][]int32, n)
	prevOf, spawnOf = make([]int32, nt), make([]int32, nt)
	for t := 0; t < nt; t++ {
		prevOf[t], spawnOf[t] = -1, -1
	}
	objs := make(map[string]*wholeTraceObj)
	obj := func(key string) *wholeTraceObj {
		st := objs[key]
		if st == nil {
			st = &wholeTraceObj{lastWrite: -1}
			objs[key] = st
		}
		return st
	}
	for i := 0; i < n; i++ {
		nd := &stack[i]
		p := int(nd.order[nd.idx])
		info := nd.infos[nd.idx]
		isCase := nd.selOf != vthread.NoThread
		if isCase {
			p = int(nd.selOf)
			info = &vthread.PendingInfo{}
		}
		if i+1 < n {
			for t := nd.nthreads; t < stack[i+1].nthreads && t < nt; t++ {
				spawnOf[t] = int32(i)
			}
		}
		v := make([]int32, nt)
		vc[i] = v
		// p's pre-state clock: its previous step, or the step that spawned
		// it; nil only for the initial thread's first step.
		var pre []int32
		if pp := prevOf[p]; pp >= 0 {
			pre = vc[pp]
		} else if sp := spawnOf[p]; sp >= 0 {
			pre = vc[sp]
		}
		if pre != nil {
			joinVC(v, pre)
		}
		if info.IsJoin {
			if tgt := int(info.JoinOf); tgt >= 0 && tgt < nt {
				if tp := prevOf[tgt]; tp >= 0 {
					joinVC(v, vc[tp])
				}
			}
		}
		for k := 0; k < info.Objects.Len(); k++ {
			st := obj(info.Objects.Obj(k))
			if st.lastWrite >= 0 {
				joinVC(v, vc[st.lastWrite])
			}
			if !info.ReadOnly {
				for _, rj := range st.reads {
					joinVC(v, vc[rj])
				}
			}
		}

		if i >= analyzeFrom && !isCase {
			for j := i - 1; j >= 0; j-- {
				ndj := &stack[j]
				if ndj.selOf != vthread.NoThread {
					continue
				}
				q := int(ndj.order[ndj.idx])
				if q == p || ndj.infos[ndj.idx].Independent(info) {
					continue
				}
				if pre != nil && pre[q] >= int32(j+1) {
					continue
				}
				if k := slices.Index(ndj.order, sched.ThreadID(p)); k >= 0 {
					backtrack[j][k] = true
				} else {
					for k := range backtrack[j] {
						backtrack[j][k] = true
					}
				}
			}
		}

		for k := 0; k < info.Objects.Len(); k++ {
			st := obj(info.Objects.Obj(k))
			if info.ReadOnly {
				st.reads = append(st.reads, i)
			} else {
				st.lastWrite = i
				st.reads = st.reads[:0]
			}
		}
		v[p] = int32(i + 1)
		prevOf[p] = int32(i)
	}
	return vc, prevOf, spawnOf
}

// dporOracleStats is what the hook saw, for tests that must prove they
// reached the case they target.
type dporOracleStats struct {
	analyses      atomic.Int64 // analyses compared
	incremental   atomic.Int64 // … that started from kept state (hbValid > 0)
	disagreements atomic.Int64

	mu         sync.Mutex
	widths     map[int]bool        // maxThreads values analysed under
	doneeCalls map[*dporEngine]int // analyses per split donee
}

// withDPOROracle installs the differential check for the rest of the test.
func withDPOROracle(t *testing.T) *dporOracleStats {
	t.Helper()
	st := &dporOracleStats{widths: map[int]bool{}, doneeCalls: map[*dporEngine]int{}}
	dporCheck = func(e *dporEngine) func() {
		n, nt := len(e.stack), e.maxThreads
		want := make([][]bool, n)
		for i := range e.stack {
			want[i] = flagsToBools(e.stack[i].flags, dporBacktrack)
		}
		vc, prevOf, spawnOf := wholeTraceAnalysis(e.stack, e.analyzeFrom, nt, want)
		st.analyses.Add(1)
		if e.hbValid > 0 && nt == e.hbThreads {
			st.incremental.Add(1)
		}
		st.mu.Lock()
		st.widths[nt] = true
		if e.borrowed > 0 {
			st.doneeCalls[e]++
		}
		st.mu.Unlock()
		from, kept := e.analyzeFrom, e.hbValid
		return func() {
			bad := func(format string, args ...any) {
				if st.disagreements.Add(1) <= 5 {
					t.Errorf("execution %d (depth %d, analyzeFrom %d, hbValid %d): "+format,
						append([]any{e.executions, n, from, kept}, args...)...)
				}
			}
			if e.hbValid != n {
				bad("hbValid = %d after the analysis, want %d", e.hbValid, n)
			}
			if !slices.Equal(e.prevOf, prevOf) || !slices.Equal(e.spawnOf, spawnOf) {
				bad("prevOf %v spawnOf %v, whole-trace pass says %v %v", e.prevOf, e.spawnOf, prevOf, spawnOf)
			}
			for i := range e.stack {
				if got := flagsToBools(e.stack[i].flags, dporBacktrack); !slices.Equal(got, want[i]) {
					bad("node %d backtrack = %v, whole-trace pass says %v", i, got, want[i])
				}
				if got := e.clock(i); !slices.Equal(got, vc[i]) {
					bad("clock row %d = %v, whole-trace pass says %v", i, got, vc[i])
				}
			}
		}
	}
	t.Cleanup(func() {
		dporCheck = nil
		if d := st.disagreements.Load(); d != 0 {
			t.Errorf("%d disagreements with the whole-trace analysis in %d analyses", d, st.analyses.Load())
		}
	})
	return st
}

// benchCfg is a complete-search configuration of a registry program, all
// accesses visible — what the ledger's exhaustive_reduction workload runs.
func benchCfg(t *testing.T, name string) Config {
	t.Helper()
	cfg := ckCfg(t, name, 1<<30)
	cfg.MaxExecutions = 1 << 30
	return cfg
}

// ledgerDPORSet is the 16 programs the ledger's exhaustive_reduction
// workload runs RunDPOR on (benchmark/sizes.go). They cover Select
// case-decision nodes (goidiom.*), condvars, joins and deep lock traffic.
var ledgerDPORSet = []string{
	"CB.aget-bug2", "CB.pbzip2-0.9.4", "CS.account_bad", "CS.arithmetic_prog_bad",
	"CS.circular_buffer_bad", "CS.din_phil3_sat", "CS.lazy01_bad", "CS.reorder_4_bad",
	"CS.token_ring_bad", "goidiom.workerpool_bad",
	"CS.wronglock_bad", "chess.WSQ", "CS.reorder_5_bad", "goidiom.pipeline_bad", "CS.din_phil5_sat",
	"CS.din_phil6_sat",
}

// ledgerDPORExecs is the ledger's pinned explore.dpor.execs.
const ledgerDPORExecs = 166419

// TestDPOROracleLedgerSet runs the ledger's DPOR searches under both
// oracles: the whole-trace analysis here and the carried-footprint check of
// carried_oracle_test.go.
func TestDPOROracleLedgerSet(t *testing.T) {
	if testing.Short() {
		t.Skip("complete searches of the ledger's DPOR set are not short")
	}
	st := withDPOROracle(t)
	carried := withCarriedOracle(t)
	execs := 0
	for _, name := range ledgerDPORSet {
		r := RunDPOR(benchCfg(t, name))
		if !r.Complete {
			t.Errorf("%s: DPOR did not complete", name)
		}
		execs += r.Executions
	}
	if execs != ledgerDPORExecs {
		t.Errorf("%d executions over the ledger's DPOR set, the ledger pins %d", execs, ledgerDPORExecs)
	}
	if got := st.analyses.Load(); got != int64(execs) {
		t.Errorf("oracle compared %d analyses of %d executions", got, execs)
	}
	if st.incremental.Load() == 0 {
		t.Error("no analysis started from kept state")
	}
	if carried.carried == 0 {
		t.Error("no footprint was carried")
	}
}

func TestDPOROracleRandomPrograms(t *testing.T) {
	st := withDPOROracle(t)
	f := func(shape uint32) bool {
		before := st.disagreements.Load()
		r := RunDPOR(Config{Program: genProgram(shape), Limit: 20000})
		if st.disagreements.Load() != before {
			t.Logf("shape %d disagrees", shape)
			return false
		}
		return r.Schedules > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// lateSpawner grows its thread count after the first execution: the
// checker spawns a helper only when it runs before the writer, which the
// canonical first schedule never does.
func lateSpawner() vthread.Program {
	return func(t0 *vthread.Thread) {
		x := t0.NewVar("x", 0)
		y := t0.NewVar("y", 0)
		w := t0.Spawn(func(tw *vthread.Thread) {
			x.Store(tw, 1)
			y.Store(tw, 1)
		})
		c := t0.Spawn(func(tc *vthread.Thread) {
			if x.Load(tc) == 0 {
				h := tc.Spawn(func(th *vthread.Thread) { y.Store(th, 2) })
				y.Store(tc, 3)
				tc.Join(h)
			}
		})
		t0.Join(w)
		t0.Join(c)
	}
}

// TestDPOROracleTargeted runs the shapes of program the happens-before
// state has a special case for: opaque steps (the figure-1 idiom's
// yields), spawn and join edges, a thread count that grows mid-search.
func TestDPOROracleTargeted(t *testing.T) {
	for _, tc := range []struct {
		name    string
		program vthread.Program
	}{
		{"opaque-yields", figure1()},
		{"spawn-edges", spawnChain()},
		{"join-edges", joinThenCheck()},
		{"independent", independentWorkers(3, 2)},
		{"max-threads-growth", lateSpawner()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := withDPOROracle(t)
			dfs := RunDFS(Config{Program: tc.program})
			r := RunDPOR(Config{Program: tc.program})
			if !r.Complete || r.BugFound != dfs.BugFound {
				t.Errorf("complete=%v bug=%v, DFS found bug=%v", r.Complete, r.BugFound, dfs.BugFound)
			}
			if tc.name == "max-threads-growth" && len(st.widths) < 2 {
				t.Errorf("thread count never grew between analyses (widths %v)", st.widths)
			}
		})
	}
}

// driveDPOR runs e to exhaustion the way the sequential driver does,
// calling visit after each execution with the depth the preceding backtrack
// advanced (0 for the first run).
func driveDPOR(e *dporEngine, positioned bool, visit func(out *vthread.Outcome, from int)) {
	ex := newExecutor(e.cfg)
	defer ex.Close()
	e.setExec(ex)
	for alive := positioned || e.backtrack(); alive; alive = e.backtrack() {
		from := e.analyzeFrom
		visit(e.runOnce(), from)
	}
}

// TestDPOROracleAbortAndStepLimit: an execution aborted at its first fresh
// node analyses exactly one new step and no successor, and a step-limited
// one ends on a node whose step may never have run; both must leave the
// kept state as the whole-trace pass would.
func TestDPOROracleAbortAndStepLimit(t *testing.T) {
	withDPOROracle(t)
	abortedAtFirstFresh := 0
	e := newDPOREngine(benchCfg(t, "CS.din_phil3_sat"))
	driveDPOR(e, true, func(out *vthread.Outcome, from int) {
		if out.Aborted && len(e.stack) == from+1 {
			abortedAtFirstFresh++
		}
	})
	if abortedAtFirstFresh == 0 {
		t.Error("no execution was aborted at its first fresh node")
	}

	cfg := benchCfg(t, "CS.din_phil3_sat")
	cfg.MaxSteps = 12
	stepLimited := 0
	e = newDPOREngine(cfg)
	driveDPOR(e, true, func(out *vthread.Outcome, from int) {
		if out.StepLimitHit {
			stepLimited++
		}
	})
	if stepLimited == 0 {
		t.Error("no execution hit the step limit")
	}
}

// TestDPOROracleSplitDonee: a donee starts from a deep copy of the donor's
// prefix with no happens-before state, rebuilds it in its first analysis
// and extends it incrementally afterwards, while the donor carries on from
// its own kept state. Deterministic splits first, then the pool at 8
// workers, where whether and where a steal happens is timing.
func TestDPOROracleSplitDonee(t *testing.T) {
	st := withDPOROracle(t)
	cfg := benchCfg(t, "CS.reorder_4_bad")
	donor := newDPOREngine(cfg)
	var donees []*dporEngine
	runs := 0
	driveDPOR(donor, true, func(*vthread.Outcome, int) {
		if runs++; runs%50 == 0 {
			if u := donor.split(); u != nil {
				donees = append(donees, u.eng.(*dporEngine))
			}
		}
	})
	if len(donees) == 0 {
		t.Fatal("the donor never had work to donate")
	}
	for _, d := range donees {
		driveDPOR(d, false, func(*vthread.Outcome, int) {})
	}
	later := 0
	for _, calls := range st.doneeCalls {
		if calls > 1 {
			later++
		}
	}
	if later == 0 {
		t.Errorf("no donee analysed twice (%d donees)", len(donees))
	}

	for _, name := range []string{"CS.reorder_4_bad", "goidiom.pipeline_bad"} {
		pcfg := benchCfg(t, name)
		pcfg.Workers = 8
		if r := RunDPOR(pcfg); !r.Complete || !r.BugFound {
			t.Errorf("%s workers=8: complete=%v bug=%v", name, r.Complete, r.BugFound)
		}
	}
	t.Logf("%d analyses on %d donees", st.analyses.Load(), len(st.doneeCalls))
}

// TestDPOROracleResume: restoreDPOR hands over a stack with analyzeFrom
// mid-stack and no happens-before state; the first analysis rebuilds the
// prefix's clocks and logs without race-scanning it again.
func TestDPOROracleResume(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	st := withDPOROracle(t)
	for _, name := range []string{"CS.circular_buffer_bad", "goidiom.workerpool_bad"} {
		cfg := benchCfg(t, name)
		base := RunDPOR(cfg)
		mid := base.Executions / 2
		before := st.analyses.Load()
		got := interruptAndResume(t, RunDPOR, cfg, mid)
		requireSameResult(t, name, base, got)
		if n := st.analyses.Load() - before; n != int64(base.Executions) {
			t.Errorf("%s: oracle compared %d analyses across kill and resume, want %d", name, n, base.Executions)
		}
	}

	// The pool's checkpoints carry parked DPOR units, donees included.
	cfg := benchCfg(t, "CS.reorder_4_bad")
	cfg.Workers = 8
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "pool.json")
	faultinject.Arm(faultinject.ExploreInterrupt, 200)
	r := RunDPOR(cfg)
	faultinject.Reset()
	if r.Stopped != StopInterrupted {
		t.Fatalf("pool run Stopped = %v, want interrupted", r.Stopped)
	}
	ck, err := LoadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointPath = ""
	res, err := Resume(ck, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || !res.BugFound {
		t.Errorf("resumed pool run: complete=%v bug=%v", res.Complete, res.BugFound)
	}
}
