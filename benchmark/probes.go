package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/corpus"
	"sctbench/internal/dist"
	"sctbench/internal/explore"
	"sctbench/internal/race"
	"sctbench/internal/report"
	"sctbench/internal/sched"
	"sctbench/internal/simplify"
	"sctbench/internal/study"
	"sctbench/internal/vthread"
)

// The per-layer probes time calls into each layer's exported functions
// directly, outside any workload, so every traced run reports the same
// per-layer metrics whatever workload it traced. README.md lists which
// end-to-end metric each one is expected to move.

// layerDef is one per-layer metric (BENCHMARK.json carries the same list).
type layerDef struct {
	Name   string
	Unit   string
	Higher bool
}

// exploreProbeTechs are the six techniques the explore probes cover.
var exploreProbeTechs = []string{"dfs", "sleepset", "dpor", "ipb", "idb", "rand"}

// perLayer lists every per-layer metric a traced run reports.
var perLayer = func() []layerDef {
	out := []layerDef{
		{"trace.overhead_pct", "%", false},
		{"trace.coverage_pct", "%", true},
	}
	for _, l := range traceLayers {
		out = append(out, layerDef{"trace.self_s." + l, "s", false})
	}
	out = append(out,
		layerDef{"vthread.exec_ns.flat", "ns", false},
		layerDef{"vthread.step_ns.flat", "ns", false},
		layerDef{"vthread.allocs_per_exec.flat", "count", false},
		layerDef{"vthread.bytes_per_exec.flat", "B", false},
		layerDef{"vthread.step_ns.long", "ns", false},
		layerDef{"vthread.step_ns.ref", "ns", false},
		layerDef{"vthread.random_step_ns", "ns", false},
		layerDef{"vthread.replay_exec_ns", "ns", false},
		layerDef{"vthread.hash_us", "us", false},
		layerDef{"vthread.build_us", "us", false},
		layerDef{"sched.canonical_order_ns.n4", "ns", false},
		layerDef{"sched.canonical_order_ns.n100", "ns", false},
		layerDef{"sched.dcstep_ns.n100", "ns", false},
		layerDef{"sched.pcstep_ns", "ns", false},
		layerDef{"race.phase_us", "us", false},
		layerDef{"race.access_ns.e10", "ns", false},
		layerDef{"race.access_ns.e100", "ns", false},
		layerDef{"race.access_ns.e1000", "ns", false},
	)
	for _, t := range exploreProbeTechs {
		out = append(out,
			layerDef{"explore." + t + ".execs_per_s", "1/s", true},
			layerDef{"explore." + t + ".ns_per_step", "ns", false},
			layerDef{"explore." + t + ".self_ns_per_step", "ns", false},
			layerDef{"explore." + t + ".execs", "count", false},
			layerDef{"explore." + t + ".schedules", "count", false},
		)
	}
	for _, t := range []string{"sleepset", "dpor"} {
		out = append(out,
			layerDef{"explore." + t + ".aborted", "count", false},
			layerDef{"explore." + t + ".branches_pruned", "count", true},
			layerDef{"explore." + t + ".useful_ratio", "ratio", true},
		)
	}
	return append(out,
		layerDef{"explore.checkpoint.save_ms", "ms", false},
		layerDef{"explore.checkpoint.load_ms", "ms", false},
		layerDef{"explore.checkpoint.bytes", "B", false},
		layerDef{"explore.checkpoint.every_us", "us", false},
		layerDef{"explore.resume_ms", "ms", false},
		layerDef{"explore.shardtree_ms", "ms", false},
		layerDef{"explore.rununit_execs_per_s", "1/s", true},
		layerDef{"explore.merge_us", "us", false},
		layerDef{"explore.unitstate_bytes", "B", false},
		layerDef{"explore.pool.speedup_w2", "x", true},
		layerDef{"dist.speedup_w2", "x", true},
		layerDef{"dist.overhead_w1", "x", false},
		layerDef{"dist.job_fixed_ms", "ms", false},
		layerDef{"dist.rpc_status_us_p50", "us", false},
		layerDef{"dist.rpc_status_us_p95", "us", false},
		layerDef{"dist.lease_complete_us", "us", false},
		layerDef{"corpus.open_ms", "ms", false},
		layerDef{"corpus.get_us", "us", false},
		layerDef{"corpus.addwitness_us", "us", false},
		layerDef{"corpus.entry_bytes", "B", false},
		layerDef{"simplify.minimize_ms", "ms", false},
		layerDef{"study.self_ms", "ms", false},
		layerDef{"report.table3csv_ms", "ms", false},
		layerDef{"report.swarmcsv_ms", "ms", false},
		layerDef{"mapleidiom.run_ms", "ms", false},
	)
}()

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// prober runs the probes and collects their metrics.
type prober struct {
	rc runConfig
	m  map[string]float64
	c  *checker
	// skipped collects rows not measured on this host.
	skipped []string
	// registry is the program set the registry-wide probes cover.
	registry []*bench.Benchmark
	// stepNs is each program's bare substrate cost per step under the
	// round-robin chooser, on the engine the searches run it on.
	stepNs map[string]float64
}

// iters scales an iteration count by the size set's ProbeScale.
func (p *prober) iters(n int) int {
	return max(1, int(float64(n)*p.rc.sz.ProbeScale))
}

func since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) }

// medianOf runs f n times and returns the median duration in nanoseconds.
func medianOf(n int, f func()) float64 {
	vals := make([]float64, n)
	for i := range vals {
		t0 := time.Now()
		f()
		vals[i] = since(t0)
	}
	return median(vals)
}

func runProbes(rc runConfig, c *checker) (map[string]float64, []string, error) {
	p := &prober{rc: rc, m: map[string]float64{}, c: c, stepNs: map[string]float64{}}
	p.registry = bench.All()
	if rc.sz.StudyPrograms != nil {
		var err error
		if p.registry, err = resolve(rc.sz.StudyPrograms); err != nil {
			return nil, nil, err
		}
	}
	for _, probe := range []func() error{
		p.vthread, p.sched, p.race, p.exploreTechniques, p.checkpoint,
		p.partitionHelpers, p.dist, p.corpus, p.studyAndReport,
	} {
		if err := probe(); err != nil {
			return nil, nil, err
		}
	}
	return p.m, p.skipped, nil
}

// allVisible is a search configuration with every access visible.
func allVisible(b *bench.Benchmark, limit int, seed uint64) explore.Config {
	return explore.Config{
		Program: b.New(), BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps,
		Limit: limit, MaxExecutions: unbounded, Seed: seed,
	}
}

// vthread measures the substrate alone: one Executor per program, no
// search above it.
func (p *prober) vthread() error {
	long := map[string]bool{"radbench.bug1": true, "radbench.bug5": true, "CS.twostage_100_bad": true}
	var flat, longSet, ref, random, replay struct{ ns, steps, execs float64 }
	var flatMallocs, flatBytes float64
	var hashNs, buildNs float64
	const batches = 5
	n := batches * p.iters(40)
	for _, b := range p.registry {
		opts := vthread.Options{Chooser: vthread.RoundRobin(), BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps}
		prog := b.New()
		_, compiled := prog.(*vthread.CompiledProgram)

		ex := vthread.NewExecutor(opts)
		ex.Run(prog) // first run grows the Executor's pools
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		// Timed in batches: the per-step cost the explore probes subtract
		// is the median batch's, which a noise burst does not reach.
		var ns float64
		var steps int
		batchStepNs := make([]float64, batches)
		for k := range batchStepNs {
			t0 := time.Now()
			batchSteps := 0
			for i := 0; i < n/batches; i++ {
				batchSteps += len(ex.Run(prog).Trace)
			}
			batchNs := since(t0)
			batchStepNs[k] = batchNs / float64(max(batchSteps, 1))
			ns, steps = ns+batchNs, steps+batchSteps
		}
		runtime.ReadMemStats(&m1)
		p.stepNs[b.Name] = median(batchStepNs)
		if compiled {
			flat.ns, flat.steps, flat.execs = flat.ns+ns, flat.steps+float64(steps), flat.execs+float64(n)
			flatMallocs += float64(m1.Mallocs - m0.Mallocs)
			flatBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		}
		if long[b.Name] {
			longSet.ns, longSet.steps = longSet.ns+ns, longSet.steps+float64(steps)
		}

		// The naive random chooser, one fresh chooser per run as the race
		// phase and Rand create them.
		nr := p.iters(100)
		t0 := time.Now()
		steps = 0
		for i := 0; i < nr; i++ {
			steps += len(ex.RunWith(vthread.NewRandom(p.rc.seed+uint64(i)), nil, prog).Trace)
		}
		random.ns, random.steps = random.ns+since(t0), random.steps+float64(steps)

		// Replay of a stored witness, as a warm corpus cell does.
		if res := explore.Run(explore.IPB, allVisible(b, p.rc.sz.ProbeLimit, p.rc.seed)); res.BugFound {
			t0 = time.Now()
			for i := 0; i < n; i++ {
				if !ex.RunWith(vthread.NewReplay(res.Witness), nil, prog).Buggy() {
					return fmt.Errorf("probe vthread: %s: witness replay lost the bug", b.Name)
				}
			}
			replay.ns, replay.execs = replay.ns+since(t0), replay.execs+float64(n)
		}
		ex.Close()

		// The closure twin on the goroutine reference engine.
		if b.Ref != nil {
			twin := b.Ref()
			rex := vthread.NewExecutor(opts)
			rex.Run(twin)
			nr := p.iters(50)
			t0 = time.Now()
			steps = 0
			for i := 0; i < nr; i++ {
				steps += len(rex.Run(twin).Trace)
			}
			ref.ns, ref.steps = ref.ns+since(t0), ref.steps+float64(steps)
			rex.Close()
		}

		hashNs += medianOf(p.iters(3), func() { sink += len(vthread.ProgramHash(b.New(), b.MaxSteps)) })
		buildNs += medianOf(p.iters(20), func() {
			if b.New() != nil {
				sink++
			}
		})
	}
	progs := float64(len(p.registry))
	p.m["vthread.exec_ns.flat"] = flat.ns / max(flat.execs, 1)
	p.m["vthread.step_ns.flat"] = flat.ns / max(flat.steps, 1)
	p.m["vthread.allocs_per_exec.flat"] = flatMallocs / max(flat.execs, 1)
	p.m["vthread.bytes_per_exec.flat"] = flatBytes / max(flat.execs, 1)
	p.m["vthread.step_ns.long"] = longSet.ns / max(longSet.steps, 1)
	p.m["vthread.step_ns.ref"] = ref.ns / max(ref.steps, 1)
	p.m["vthread.random_step_ns"] = random.ns / max(random.steps, 1)
	p.m["vthread.replay_exec_ns"] = replay.ns / max(replay.execs, 1)
	p.m["vthread.hash_us"] = hashNs / progs / 1e3
	p.m["vthread.build_us"] = buildNs / progs / 1e3
	return nil
}

// sched measures the scheduling-order helpers the engines call per node.
func (p *prober) sched() error {
	enabledSet := func(n int) []sched.ThreadID {
		out := make([]sched.ThreadID, n)
		for i := range out {
			out[i] = sched.ThreadID(i)
		}
		return out
	}
	n := p.iters(200000)
	for _, size := range []int{4, 100} {
		enabled := enabledSet(size)
		dst := make([]sched.ThreadID, 0, size)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			dst = sched.AppendCanonicalOrder(dst[:0], enabled, sched.ThreadID(i%size), size)
		}
		p.m[fmt.Sprintf("sched.canonical_order_ns.n%d", size)] = since(t0) / float64(n)
		sink += len(dst)
	}
	isEnabled := func(t sched.ThreadID) bool { return t%2 == 0 }
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += sched.DCStep(sched.ThreadID(i%100), sched.ThreadID((i*7)%100), 100, isEnabled)
	}
	p.m["sched.dcstep_ns.n100"] = since(t0) / float64(n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		sink += sched.PCStep(sched.ThreadID(i%4), i%3 != 0, sched.ThreadID((i+1)%4))
	}
	p.m["sched.pcstep_ns"] = since(t0) / float64(n)
	return nil
}

// race measures the detection phase and the detector's per-access cost on
// synthetic streams of 10, 100 and 1000 events.
func (p *prober) race() error {
	var phaseNs float64
	for _, b := range p.registry {
		t0 := time.Now()
		res := race.RunPhase(race.PhaseConfig{
			Program: b.New(), Runs: race.DefaultRuns, Seed: p.rc.seed,
			MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
		})
		phaseNs += since(t0)
		sink += len(res.Racy)
	}
	p.m["race.phase_us"] = phaseNs / float64(len(p.registry)) / 1e3

	keys := []string{"var/a", "var/b", "var/c", "var/d", "var/e", "var/f", "var/g", "var/h"}
	for _, events := range []int{10, 100, 1000} {
		reps := p.iters(200000 / events)
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			d := race.NewDetector()
			for t := 1; t < 4; t++ {
				d.Spawned(0, vthread.ThreadID(t))
			}
			for i := 0; i < events; i++ {
				t := vthread.ThreadID(i % 4)
				if i%8 == 7 { // an occasional lock hand-over orders some accesses
					d.Release(t, "mutex/m")
					d.Acquire(vthread.ThreadID((i+1)%4), "mutex/m")
				}
				d.Access(t, keys[(i*5)%len(keys)], i%3 == 0)
			}
			sink += len(d.Racy())
		}
		p.m[fmt.Sprintf("race.access_ns.e%d", events)] = since(t0) / float64(reps*events)
	}
	return nil
}

// exploreTechniques runs each technique over a fixed program set and
// splits its cost per step into the substrate's share (the program's bare
// round-robin step cost, from the vthread probe) and the rest — the
// search engine's own bookkeeping.
func (p *prober) exploreTechniques() error {
	sz := p.rc.sz
	dfs, err := resolve(sz.ExhDFS)
	if err != nil {
		return err
	}
	ss, err := resolve(sz.ExhSleepset)
	if err != nil {
		return err
	}
	dp, err := resolve(sz.ExhDPOR)
	if err != nil {
		return err
	}
	sets := map[string][]*bench.Benchmark{
		"dfs": dfs, "sleepset": append(append([]*bench.Benchmark(nil), dfs...), ss...),
		"ipb": p.registry, "idb": p.registry, "rand": p.registry,
	}
	sets["dpor"] = append(append([]*bench.Benchmark(nil), sets["sleepset"]...), dp...)
	run := map[string]func(explore.Config) *explore.Result{
		"dfs": explore.RunDFS, "sleepset": explore.RunSleepSetDFS, "dpor": explore.RunDPOR,
		"ipb":  func(c explore.Config) *explore.Result { return explore.Run(explore.IPB, c) },
		"idb":  func(c explore.Config) *explore.Result { return explore.Run(explore.IDB, c) },
		"rand": func(c explore.Config) *explore.Result { return explore.Run(explore.Rand, c) },
	}
	for _, tech := range exploreProbeTechs {
		limit := sz.ProbeLimit
		if tech == "dfs" || tech == "sleepset" || tech == "dpor" {
			limit = unbounded
		}
		var ns, substrateNs float64
		var execs, scheds, steps, aborted, pruned int64
		for _, b := range sets[tech] {
			if _, ok := p.stepNs[b.Name]; !ok {
				return fmt.Errorf("probe explore: %s is outside the program set the vthread probe priced", b.Name)
			}
			cfg := allVisible(b, limit, p.rc.seed)
			t0 := time.Now()
			res := run[tech](cfg)
			ns += since(t0)
			substrateNs += float64(res.TotalSteps) * p.stepNs[b.Name]
			execs += int64(res.Executions)
			scheds += int64(res.Schedules)
			steps += res.TotalSteps
			aborted += int64(res.AbortedExecutions)
			pruned += int64(res.BranchesPruned)
		}
		pre := "explore." + tech
		p.m[pre+".execs_per_s"] = float64(execs) / (ns / 1e9)
		p.m[pre+".ns_per_step"] = ns / float64(max(steps, 1))
		p.m[pre+".self_ns_per_step"] = (ns - substrateNs) / float64(max(steps, 1))
		p.m[pre+".execs"] = float64(execs)
		p.m[pre+".schedules"] = float64(scheds)
		if tech == "sleepset" || tech == "dpor" {
			p.m[pre+".aborted"] = float64(aborted)
			p.m[pre+".branches_pruned"] = float64(pruned)
			p.m[pre+".useful_ratio"] = float64(scheds) / float64(max(execs, 1))
		}
	}
	return nil
}

// checkpoint measures the checkpoint codec and the cost of periodic
// writes on one complete sequential DFS. The checkpoint it loads, saves
// and resumes is the periodic write a search leaves behind mid-run.
func (p *prober) checkpoint() error {
	b := bench.ByName(p.rc.sz.PartitionJobs[0])
	if b == nil {
		return fmt.Errorf("unknown benchmark %q", p.rc.sz.PartitionJobs[0])
	}
	dir, err := os.MkdirTemp(p.rc.workdir, "checkpoint-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := allVisible(b, unbounded, p.rc.seed)
	t0 := time.Now()
	plain := explore.RunDFS(cfg)
	plainNs := since(t0)

	every := 1000
	if plain.Executions < 4*every {
		every = plain.Executions/4 + 1
	}
	cfg.CheckpointPath = filepath.Join(dir, "periodic.json")
	cfg.CheckpointEvery = every
	t0 = time.Now()
	withCk := explore.RunDFS(cfg)
	writes := plain.Executions / every
	p.m["explore.checkpoint.every_us"] = (since(t0) - plainNs) / float64(max(writes, 1)) / 1e3
	if withCk.CheckpointError != "" {
		return fmt.Errorf("probe checkpoint: %s", withCk.CheckpointError)
	}

	// One write, half-way: the file left behind resumes the second half.
	cfg.CheckpointPath = filepath.Join(dir, "half.json")
	cfg.CheckpointEvery = plain.Executions/2 + 1
	explore.RunDFS(cfg)
	ck, err := explore.LoadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		return fmt.Errorf("probe checkpoint: %w", err)
	}
	st, err := os.Stat(cfg.CheckpointPath)
	if err != nil {
		return err
	}
	p.m["explore.checkpoint.bytes"] = float64(st.Size())
	p.m["explore.checkpoint.load_ms"] = medianOf(p.iters(20), func() {
		if _, lerr := explore.LoadCheckpoint(cfg.CheckpointPath); lerr != nil {
			err = lerr
		}
	}) / 1e6
	if err != nil {
		return fmt.Errorf("probe checkpoint: %w", err)
	}
	savePath := filepath.Join(dir, "save.json")
	p.m["explore.checkpoint.save_ms"] = medianOf(p.iters(20), func() {
		if serr := ck.Save(savePath); serr != nil {
			err = serr
		}
	}) / 1e6
	if err != nil {
		return fmt.Errorf("probe checkpoint: %w", err)
	}
	t0 = time.Now()
	resumed, err := explore.Resume(ck, allVisible(b, unbounded, p.rc.seed))
	p.m["explore.resume_ms"] = since(t0) / 1e6
	if err != nil {
		return fmt.Errorf("probe checkpoint: %w", err)
	}
	var problems []string
	if resumed.Schedules != plain.Schedules || resumed.BuggySchedules != plain.BuggySchedules || !resumed.Complete {
		problems = append(problems, fmt.Sprintf("probe checkpoint: %s resumed to %d schedules (%d buggy, complete %v), uninterrupted run has %d (%d buggy)",
			b.Name, resumed.Schedules, resumed.BuggySchedules, resumed.Complete, plain.Schedules, plain.BuggySchedules))
	}
	p.c.op(problems...)
	return nil
}

// partitionHelpers drives one partitioned pass by hand — ShardTree, RunUnit
// per unit, MergeUnitStates + FoldInto — and then the same jobs under the
// pool and dist drivers against their sequential baseline.
func (p *prober) partitionHelpers() error {
	jobs, err := resolve(p.rc.sz.PartitionJobs)
	if err != nil {
		return err
	}
	const shards = 8 // the dist coordinator's default
	var shardNs, unitNs, mergeNs, unitBytes, seqNs float64
	var units, unitExecs int
	for _, b := range jobs {
		cfg := allVisible(b, unbounded, p.rc.seed)
		t0 := time.Now()
		seq := explore.RunDFS(cfg)
		seqNs += since(t0)

		t0 = time.Now()
		set, err := explore.ShardTree(cfg, explore.DFS, 0, shards)
		if err != nil {
			return fmt.Errorf("probe partition: %w", err)
		}
		shardNs += since(t0)
		var done []*explore.UnitResultState
		for i := range set.Done {
			done = append(done, &set.Done[i])
		}
		for i := range set.Units {
			data, err := json.Marshal(&set.Units[i])
			if err != nil {
				return err
			}
			unitBytes += float64(len(data))
			units++
			t0 = time.Now()
			ur, err := explore.RunUnit(cfg, &set.Units[i], 0, nil)
			unitNs += since(t0)
			if err != nil || ur.Done == nil {
				return fmt.Errorf("probe partition: %s unit %d did not finish: %v", b.Name, i, err)
			}
			unitExecs += ur.Done.Executions
			done = append(done, ur.Done)
		}
		merged := &explore.Result{Technique: explore.DFS}
		t0 = time.Now()
		pm := explore.MergeUnitStates(done, unbounded)
		pm.FoldInto(merged, 0)
		mergeNs += since(t0)
		var problems []string
		if pm.Schedules != seq.Schedules || merged.BuggySchedules != seq.BuggySchedules {
			problems = append(problems, fmt.Sprintf("probe partition: %s merged by hand to %d schedules (%d buggy), sequential has %d (%d)",
				b.Name, pm.Schedules, merged.BuggySchedules, seq.Schedules, seq.BuggySchedules))
		}
		p.c.op(problems...)
	}
	p.m["explore.shardtree_ms"] = shardNs / float64(len(jobs)) / 1e6
	p.m["explore.rununit_execs_per_s"] = float64(unitExecs) / (unitNs / 1e9)
	p.m["explore.merge_us"] = mergeNs / float64(len(jobs)) / 1e3
	p.m["explore.unitstate_bytes"] = unitBytes / float64(max(units, 1))

	if runtime.NumCPU() < 2 {
		p.skipped = append(p.skipped, fmt.Sprintf("explore.pool.speedup_w2, dist.speedup_w2 and dist.overhead_w1 reported as 0: they need 2 CPUs, this host has %d", runtime.NumCPU()))
		p.m["explore.pool.speedup_w2"], p.m["dist.speedup_w2"], p.m["dist.overhead_w1"] = 0, 0, 0
		return nil
	}
	var poolNs, dist2Ns, dist1Ns float64
	for _, b := range jobs {
		cfg := allVisible(b, unbounded, p.rc.seed)
		cfg.Workers = 2
		t0 := time.Now()
		explore.RunDFS(cfg)
		poolNs += since(t0)
		for _, n := range []int{2, 1} {
			t0 = time.Now()
			if _, err := runDist(nil, 0, b, explore.DFS, unbounded, n); err != nil {
				return fmt.Errorf("probe partition: %w", err)
			}
			if n == 2 {
				dist2Ns += since(t0)
			} else {
				dist1Ns += since(t0)
			}
		}
	}
	p.m["explore.pool.speedup_w2"] = seqNs / poolNs
	p.m["dist.speedup_w2"] = seqNs / dist2Ns
	p.m["dist.overhead_w1"] = dist1Ns / seqNs
	return nil
}

// dist measures what a distributed job costs before any work is done and
// what one RPC costs over loopback.
func (p *prober) dist() error {
	// The fixed cost of a job: coordinator plus one worker on a search of a
	// few dozen executions.
	wsq := bench.ByName("chess.WSQ")
	var jobErr error
	p.m["dist.job_fixed_ms"] = medianOf(p.iters(5), func() {
		if _, err := runDist(nil, 0, wsq, explore.IDB, explore.DefaultLimit, 1); err != nil {
			jobErr = err
		}
	}) / 1e6
	if jobErr != nil {
		return fmt.Errorf("probe dist: %w", jobErr)
	}

	// RPC round trips against a coordinator serving a small DFS job.
	b := bench.ByName(p.rc.sz.ExhDFS[0])
	c, err := dist.NewCoordinator(dist.JobConfig{Bench: b, Technique: explore.DFS, Limit: unbounded, MaxExecutions: unbounded, NoRace: true})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.Serve(l)
	defer c.Close()
	base := "http://" + c.Addr()
	post := func(path string, req, reply any) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: http %d: %s", path, resp.StatusCode, data)
		}
		return json.Unmarshal(data, reply)
	}

	n := p.iters(1000)
	rtts := make([]float64, n)
	for i := range rtts {
		var st dist.StatusReply
		t0 := time.Now()
		if err := post("/v1/status", struct{}{}, &st); err != nil {
			return fmt.Errorf("probe dist: %w", err)
		}
		rtts[i] = since(t0) / 1e3
	}
	p.m["dist.rpc_status_us_p50"] = percentile(rtts, 50)
	p.m["dist.rpc_status_us_p95"] = percentile(rtts, 95)

	// Lease → complete, with the exported request types, executing each
	// leased unit locally between the two calls (untimed).
	cfg := allVisible(b, unbounded, 0)
	var rpcNs float64
	var leases int
	for {
		var lease dist.LeaseReply
		t0 := time.Now()
		if err := post("/v1/lease", dist.LeaseRequest{Worker: "probe"}, &lease); err != nil {
			return fmt.Errorf("probe dist: %w", err)
		}
		leaseNs := since(t0)
		if lease.Status == dist.StatusDone {
			break
		}
		if lease.Status == dist.StatusWait {
			time.Sleep(time.Duration(max(lease.RetryMillis, 1)) * time.Millisecond)
			continue
		}
		if lease.Status != dist.StatusUnit {
			return fmt.Errorf("probe dist: lease status %q", lease.Status)
		}
		ur, err := explore.RunUnit(cfg, lease.Unit, lease.Budget, nil)
		if err != nil || ur.Done == nil {
			return fmt.Errorf("probe dist: leased unit did not finish: %v", err)
		}
		var rep dist.CompleteReply
		t0 = time.Now()
		if err := post("/v1/complete", dist.CompleteRequest{LeaseID: lease.LeaseID, UnitID: lease.UnitID, Result: ur.Done, LimitHit: ur.LimitHit}, &rep); err != nil {
			return fmt.Errorf("probe dist: %w", err)
		}
		rpcNs += leaseNs + since(t0)
		leases++
	}
	if _, err := c.Wait(); err != nil {
		return fmt.Errorf("probe dist: %w", err)
	}
	p.m["dist.lease_complete_us"] = rpcNs / float64(max(leases, 1)) / 1e3
	return nil
}

// corpus measures the store on the corpus one cold swarm sweep leaves
// behind, and the witness minimisation that precedes every write.
func (p *prober) corpus() error {
	w := &swarmWL{rc: p.rc}
	if err := w.setUp(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.rc.workdir, "corpus-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := corpus.Open(dir)
	if err != nil {
		return err
	}
	cells := study.RunSwarm(w.benches, w.config(st, w.seeds(1)))
	p.m["report.swarmcsv_ms"] = medianOf(p.iters(20), func() { sink += len(report.SwarmCSV(cells)) }) / 1e6

	p.m["corpus.open_ms"] = medianOf(p.iters(20), func() {
		if _, oerr := corpus.Open(dir); oerr != nil {
			err = oerr
		}
	}) / 1e6
	if err != nil {
		return fmt.Errorf("probe corpus: %w", err)
	}
	hashes := st.Hashes()
	if len(hashes) == 0 {
		return fmt.Errorf("probe corpus: the cold sweep stored no entry")
	}
	gets := p.iters(100)
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		for _, h := range hashes {
			e, _ := st.Get(h)
			sink += len(e.Witnesses)
		}
	}
	p.m["corpus.get_us"] = since(t0) / float64(gets*len(hashes)) / 1e3
	var size int64
	for _, h := range hashes {
		fi, err := os.Stat(filepath.Join(dir, h+".json"))
		if err != nil {
			return fmt.Errorf("probe corpus: %w", err)
		}
		size += fi.Size()
	}
	p.m["corpus.entry_bytes"] = float64(size) / float64(len(hashes))

	// Fresh witnesses for the write and minimise probes: unminimised DFS
	// witnesses of the corpus programs.
	scratch, err := corpus.Open(filepath.Join(dir, "scratch"))
	if err != nil {
		return err
	}
	var addNs, minNs float64
	var adds, mins int
	for _, b := range w.benches {
		res := explore.RunDFS(allVisible(b, p.rc.sz.ProbeLimit, p.rc.seed))
		if !res.BugFound {
			continue
		}
		t0 := time.Now()
		mz := simplify.Minimize(b.New, res.Witness, simplify.Options{BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps})
		minNs += since(t0)
		mins++
		wit := corpus.Witness{Schedule: mz.Schedule, PC: mz.PC, DC: mz.DC, Kind: res.Failure.Kind.String(), Technique: "DFS"}
		t0 = time.Now()
		if err := scratch.AddWitness(b.Hash(), b.Name, wit); err != nil {
			return fmt.Errorf("probe corpus: %w", err)
		}
		addNs += since(t0)
		adds++
	}
	p.m["corpus.addwitness_us"] = addNs / float64(max(adds, 1)) / 1e3
	p.m["simplify.minimize_ms"] = minNs / float64(max(mins, 1)) / 1e6
	return nil
}

// studyAndReport prices the study layer's own glue: a study.RunAll pass
// minus the race, explore and mapleidiom calls it makes, which the traced
// (unrolled) pass times one by one.
func (p *prober) studyAndReport() error {
	rc := p.rc
	rc.sz.StudyLimit = rc.sz.StudyWarmLimit // the glue does not depend on the limit
	w := &studyWL{rc: rc, benches: p.registry}
	runtime.GC()
	whole, err := w.round(nil)
	if err != nil {
		return err
	}
	runtime.GC()
	tr := newTracer()
	unrolled, err := w.round(tr)
	if err != nil {
		return err
	}
	p.c.op(sameCounts("probe study: unrolled pass", whole.counts, unrolled.counts)...)
	var children, maple float64
	for _, s := range tr.spans {
		switch s.Layer {
		case layerRace, layerExplore, layerMaple, layerReport:
			children += float64(s.End - s.Start)
		}
		if s.Layer == layerMaple {
			maple += float64(s.End - s.Start)
		}
	}
	p.m["study.self_ms"] = (whole.wall*1e9 - children) / 1e6
	p.m["mapleidiom.run_ms"] = maple / 1e6
	rows := unrolled.raw.(*studyRaw).rows
	p.m["report.table3csv_ms"] = medianOf(p.iters(20), func() { sink += len(report.Table3CSV(rows)) }) / 1e6
	return nil
}
