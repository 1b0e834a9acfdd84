package main

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/dist"
	"sctbench/internal/explore"
)

// partitionDrivers are the three ways the same jobs are run.
var partitionDrivers = []string{"seq", "pool", "dist"}

// partitionWL is the partition workload: identical complete DFS jobs under
// the sequential driver, the in-process pool and the dist coordinator with
// in-process workers over a loopback listener.
type partitionWL struct {
	rc   runConfig
	out  *runOutput
	jobs []program
	// drivers are the ones measured on this host.
	drivers []string
}

func (w *partitionWL) setUp() error {
	jobs, err := build(w.rc.sz.PartitionJobs)
	if err != nil {
		return err
	}
	w.jobs = shuffled(jobs, w.rc.seed)
	w.drivers = partitionDrivers
	if runtime.NumCPU() < 2 {
		// Two workers on one CPU measure scheduling noise, not scaling.
		w.drivers = partitionDrivers[:1]
		reason := fmt.Sprintf("pool and dist rows skipped: %d workers need at least 2 CPUs, this host has %d",
			w.rc.sz.PartitionWorkers, runtime.NumCPU())
		if len(w.out.Skipped) == 0 {
			w.out.Skipped = append(w.out.Skipped, reason)
		}
	}
	_, err = w.pass(nil, w.rc.sz.WarmLimit)
	return err
}

// runDist runs one job under a coordinator and n in-process workers over a
// 127.0.0.1 listener, as `sctserve` does across processes.
func runDist(tr *tracer, parent int, b *bench.Benchmark, tech explore.Technique, limit, n int) (*explore.Result, error) {
	job := tr.begin(parent, layerDist, "dist.job", b.Name, tech.String())
	c, err := dist.NewCoordinator(dist.JobConfig{
		Bench: b, Technique: tech, Limit: limit, MaxExecutions: unbounded, NoRace: true,
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.Serve(l)
	defer c.Close()

	// One span covers all n workers, first start to last exit, so the
	// spans stay a partition of wall time; each worker's own lifetime goes
	// into its counts. The units the workers execute run inside RunWorker,
	// below the boundary seen from here: the dist layer's time includes
	// them, and dist.overhead_w1 is what it adds to the sequential search.
	ws := tr.begin(job, layerDist, "dist.RunWorker", b.Name, tech.String())
	errs := make([]error, n)
	lifetimes := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = dist.RunWorker(dist.WorkerConfig{Addr: "http://" + c.Addr(), Name: fmt.Sprintf("w%d", i)})
			lifetimes[i] = time.Since(t0).Nanoseconds()
		}(i)
	}
	res, err := c.Wait()
	wg.Wait()
	workerCounts := map[string]int64{"workers": int64(n)}
	for i, ns := range lifetimes {
		workerCounts[fmt.Sprintf("worker%d_ns", i)] = ns
	}
	tr.end(ws, workerCounts)
	c.Close()
	if err != nil {
		return nil, err
	}
	for _, werr := range errs {
		if werr != nil {
			return nil, werr
		}
	}
	tr.end(job, exploreCounts(res))
	return res, nil
}

// partitionRaw maps driver → job name → result.
type partitionRaw map[string]map[string]*explore.Result

// pass runs every job under every measured driver.
func (w *partitionWL) pass(tr *tracer, limit int) (roundResult, error) {
	rr := roundResult{phaseExecs: map[string]int64{}, counts: map[string]int64{}}
	raw := partitionRaw{}
	workers := w.rc.sz.PartitionWorkers
	t0 := time.Now()
	root := tr.begin(0, layerHarness, "partition.round", "", "")
	for _, drv := range w.drivers {
		raw[drv] = map[string]*explore.Result{}
		for _, p := range w.jobs {
			var res *explore.Result
			t2 := time.Now()
			switch drv {
			case "seq", "pool":
				cfg := treeConfig(p, limit)
				if drv == "pool" {
					cfg.Workers = workers
				}
				s := tr.begin(root, layerExplore, "explore.Run/"+drv, p.b.Name, "DFS")
				res = explore.Run(explore.DFS, cfg)
				tr.end(s, exploreCounts(res))
			case "dist":
				var err error
				if res, err = runDist(tr, root, p.b, explore.DFS, limit, workers); err != nil {
					return rr, fmt.Errorf("dist job %s: %w", p.b.Name, err)
				}
			}
			rr.opMs = append(rr.opMs, float64(time.Since(t2).Nanoseconds())/1e6)
			rr.opKeys = append(rr.opKeys, drv+"/"+p.b.Name)
			raw[drv][p.b.Name] = res
		}
	}
	tr.end(root, nil)
	rr.wall = time.Since(t0).Seconds()

	// Every driver does the sequential search's work; the rates are that
	// work over the driver's wall time.
	for _, res := range raw["seq"] {
		rr.counts["job_executions"] += int64(res.Executions)
		rr.counts["job_schedules"] += int64(res.Schedules)
	}
	for _, drv := range w.drivers {
		rr.phaseExecs[drv] = rr.counts["job_executions"]
		rr.execs += rr.counts["job_executions"]
	}
	rr.raw = raw
	return rr, nil
}

func (w *partitionWL) round(tr *tracer) (roundResult, error) {
	return w.pass(tr, unbounded)
}

// verify counts one operation per job and driver: the sequential search
// completes, and the pool and dist drivers reproduce it.
func (w *partitionWL) verify(rr *roundResult, c *checker) {
	raw := rr.raw.(partitionRaw)
	for _, p := range w.jobs {
		name := p.b.Name
		seq := raw["seq"][name]
		if !seq.Complete {
			c.op(fmt.Sprintf("%s seq: search did not complete (stopped: %s)", name, seq.Stopped))
		} else {
			c.op()
		}
		for _, drv := range w.drivers[1:] {
			got := raw[drv][name]
			var problems []string
			for _, f := range []struct {
				field     string
				want, got any
			}{
				{"Schedules", seq.Schedules, got.Schedules},
				{"BuggySchedules", seq.BuggySchedules, got.BuggySchedules},
				{"SchedulesToFirstBug", seq.SchedulesToFirstBug, got.SchedulesToFirstBug},
				{"Witness", seq.Witness, got.Witness},
				{"Complete", seq.Complete, got.Complete},
			} {
				if !reflect.DeepEqual(f.want, f.got) {
					problems = append(problems, fmt.Sprintf("%s %s: %s = %v, sequential says %v", name, drv, f.field, f.got, f.want))
				}
			}
			c.op(problems...)
		}
	}
}

// verifyFirst replays the sequential witnesses (the other drivers' are
// equal to them) and holds the DFS schedule counts against their pin.
func (w *partitionWL) verifyFirst(rr *roundResult, c *checker) {
	raw := rr.raw.(partitionRaw)
	dfsSchedules := map[string]int{}
	for _, p := range w.jobs {
		seq := raw["seq"][p.b.Name]
		dfsSchedules[p.b.Name] = seq.Schedules
		if seq.BugFound {
			c.op(resultProblems(p.b, "seq", seq, nil)...)
		}
	}
	if w.rc.sz.Pinned {
		c.op(dfsPinProblems(dfsSchedules, false)...)
	}
}

func (w *partitionWL) native(rs []roundResult) map[string][]float64 {
	out := map[string][]float64{}
	for _, drv := range w.drivers {
		out[drv+"_execs_per_s"] = []float64{float64(rs[0].phaseExecs[drv]) / bestSeconds(rs, drv+"/")}
	}
	wall := bestSeconds(rs, "")
	out["wall_s"] = []float64{wall}
	out["execs_per_s"] = []float64{float64(rs[0].execs) / wall}
	out["allocs_per_exec"] = []float64{allocsPerExec(rs)}
	out["peak_rss_mb"] = []float64{peakRSSMB()}
	return out
}
