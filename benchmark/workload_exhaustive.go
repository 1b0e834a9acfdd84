package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/vthread"
)

// program is a registry entry with one built instance, reused by every
// search of a run (registry programs keep their state inside the body).
type program struct {
	b *bench.Benchmark
	r vthread.Runnable
}

func build(names []string) ([]program, error) {
	bs, err := resolve(names)
	if err != nil {
		return nil, err
	}
	out := make([]program, len(bs))
	for i, b := range bs {
		out[i] = program{b, b.New()}
	}
	return out, nil
}

// shuffled returns xs in an order drawn from the seed. The programs are
// fixed inputs, so the seed can only permute them; every count must come
// out the same under any order.
func shuffled[T any](xs []T, seed uint64) []T {
	out := append([]T(nil), xs...)
	rng := rand.New(rand.NewPCG(seed, 0x5c7be9c4))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// treeConfig is a complete-search configuration with every access visible.
func treeConfig(p program, limit int) explore.Config {
	return explore.Config{
		Program: p.r, BoundsCheck: p.b.BoundsCheck, MaxSteps: p.b.MaxSteps,
		Limit: limit, MaxExecutions: unbounded,
	}
}

// reduction is one of the three exhaustive techniques.
type reduction struct {
	name string
	run  func(explore.Config) *explore.Result
}

var reductions = []reduction{
	{"dfs", explore.RunDFS},
	{"sleepset", explore.RunSleepSetDFS},
	{"dpor", explore.RunDPOR},
}

// exhaustiveWL is the exhaustive_reduction workload: every search runs to
// completion, so a technique's wall time is the time to exhaust its set —
// a change that removes redundant executions wins, one that only
// re-labels them does not.
type exhaustiveWL struct {
	rc   runConfig
	sets [3][]program // per reduction, in this run's order
}

func (w *exhaustiveWL) setUp() error {
	sz := w.rc.sz
	dfs, err := build(sz.ExhDFS)
	if err != nil {
		return err
	}
	ss, err := build(sz.ExhSleepset)
	if err != nil {
		return err
	}
	dp, err := build(sz.ExhDPOR)
	if err != nil {
		return err
	}
	w.sets[0] = shuffled(dfs, w.rc.seed)
	w.sets[1] = shuffled(append(append([]program(nil), dfs...), ss...), w.rc.seed)
	w.sets[2] = shuffled(append(append(append([]program(nil), dfs...), ss...), dp...), w.rc.seed)
	w.pass(nil, sz.WarmLimit)
	return nil
}

// exhaustiveRaw maps technique → program name → result.
type exhaustiveRaw [3]map[string]*explore.Result

// pass runs every search of a round under the given schedule limit.
func (w *exhaustiveWL) pass(tr *tracer, limit int) roundResult {
	rr := roundResult{phaseExecs: map[string]int64{}, counts: map[string]int64{}}
	raw := &exhaustiveRaw{}
	t0 := time.Now()
	root := tr.begin(0, layerHarness, "exhaustive_reduction.round", "", "")
	for ti, red := range reductions {
		raw[ti] = make(map[string]*explore.Result, len(w.sets[ti]))
		for _, p := range w.sets[ti] {
			s := tr.begin(root, layerExplore, "explore.Run", p.b.Name, red.name)
			t2 := time.Now()
			res := red.run(treeConfig(p, limit))
			rr.opMs = append(rr.opMs, float64(time.Since(t2).Nanoseconds())/1e6)
			rr.opKeys = append(rr.opKeys, red.name+"/"+p.b.Name)
			tr.end(s, exploreCounts(res))
			raw[ti][p.b.Name] = res
			rr.phaseExecs[red.name] += int64(res.Executions)
			rr.counts[red.name+"_schedules"] += int64(res.Schedules)
		}
		rr.counts[red.name+"_executions"] = rr.phaseExecs[red.name]
		rr.execs += rr.phaseExecs[red.name]
	}
	tr.end(root, nil)
	rr.wall = time.Since(t0).Seconds()
	rr.raw = raw
	return rr
}

func (w *exhaustiveWL) round(tr *tracer) (roundResult, error) {
	return w.pass(tr, unbounded), nil
}

// verify counts one operation per search: complete, and agreeing with
// plain DFS on verdict and failure kind within DFS's schedule count.
func (w *exhaustiveWL) verify(rr *roundResult, c *checker) {
	raw := rr.raw.(*exhaustiveRaw)
	for ti, red := range reductions {
		for _, p := range w.sets[ti] {
			name := p.b.Name
			res := raw[ti][name]
			var problems []string
			if !res.Complete {
				problems = append(problems, fmt.Sprintf("%s %s: search did not complete (stopped: %s)", name, red.name, res.Stopped))
			}
			if ref := raw[0][name]; ti > 0 && ref != nil {
				if res.BugFound != ref.BugFound {
					problems = append(problems, fmt.Sprintf("%s %s: verdict %v, DFS says %v", name, red.name, res.BugFound, ref.BugFound))
				} else if res.BugFound && res.Failure.Kind != ref.Failure.Kind {
					problems = append(problems, fmt.Sprintf("%s %s: failure kind %s, DFS found %s", name, red.name, res.Failure.Kind, ref.Failure.Kind))
				}
				if res.Schedules > ref.Schedules {
					problems = append(problems, fmt.Sprintf("%s %s: %d schedules, more than DFS's %d", name, red.name, res.Schedules, ref.Schedules))
				}
			}
			c.op(problems...)
		}
	}
}

// verifyFirst replays every found bug and holds the DFS schedule counts
// against their pin.
func (w *exhaustiveWL) verifyFirst(rr *roundResult, c *checker) {
	raw := rr.raw.(*exhaustiveRaw)
	dfsSchedules := map[string]int{}
	for ti, red := range reductions {
		for _, p := range w.sets[ti] {
			res := raw[ti][p.b.Name]
			if res.BugFound {
				c.op(resultProblems(p.b, red.name, res, nil)...)
			}
			if ti == 0 {
				dfsSchedules[p.b.Name] = res.Schedules
			}
		}
	}
	if w.rc.sz.Pinned {
		c.op(dfsPinProblems(dfsSchedules, true)...)
	}
}

// dfsPinProblems holds complete-DFS schedule counts against the committed
// pin. They are properties of the programs, independent of seed and of
// which workload ran the search; owner marks the workload whose program
// set the pin file covers (the only one that may rewrite it).
func dfsPinProblems(got map[string]int, owner bool) []string {
	const pin = "dfs_schedules.json"
	if owner && os.Getenv(updatePinsEnv) != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return []string{fmt.Sprintf("pin %s: %v", pin, err)}
		}
		return pinProblems(pin, string(data)+"\n")
	}
	data, err := expected.ReadFile("expected/" + pin)
	if err != nil {
		return []string{fmt.Sprintf("pin %s: %v", pin, err)}
	}
	want := map[string]int{}
	if err := json.Unmarshal(data, &want); err != nil {
		return []string{fmt.Sprintf("pin %s: %v", pin, err)}
	}
	var out []string
	for name, n := range got {
		if w, ok := want[name]; !ok || w != n {
			out = append(out, fmt.Sprintf("pin %s: %s explored %d schedules, pinned %d", pin, name, n, w))
		}
	}
	sort.Strings(out)
	return out
}

func (w *exhaustiveWL) native(rs []roundResult) map[string][]float64 {
	out := map[string][]float64{}
	for _, red := range reductions {
		out[red.name+"_wall_s"] = []float64{bestSeconds(rs, red.name+"/")}
	}
	wall := bestSeconds(rs, "")
	out["wall_s"] = []float64{wall}
	out["execs_per_s"] = []float64{float64(rs[0].execs) / wall}
	out["allocs_per_exec"] = []float64{allocsPerExec(rs)}
	out["peak_rss_mb"] = []float64{peakRSSMB()}
	return out
}
