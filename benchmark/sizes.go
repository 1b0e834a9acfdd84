package main

import (
	"fmt"
	"math"

	"sctbench/internal/bench"
)

// sizes are the frozen input sizes of the four workloads. Every result
// file records the set it ran with; fullSizes is what BENCHMARK.json
// measures and smokeSizes is the tiny set `go test` drives the harness
// with. Changing a value here changes what the metrics mean, so it is a
// benchmark correction, never part of a change that claims a gain.
type sizes struct {
	// SetupReps is how many complete set-ups a run performs; setup_s is
	// their median.
	SetupReps int `json:"setup_reps"`
	// Pinned says the outputs of this size set are pinned in expected/.
	Pinned bool `json:"pinned"`
	// WarmLimit caps every search of the exhaustive_reduction and
	// partition warm-up round (the timed rounds are never truncated).
	WarmLimit int `json:"warm_limit"`

	// study_registry: study.RunAll over StudyPrograms (nil = the whole
	// registry) at StudyLimit, after a StudyWarmLimit pass in set-up;
	// StudyRounds timed passes in a run of refSeconds.
	StudyPrograms  []string `json:"study_programs,omitempty"`
	StudyLimit     int      `json:"study_limit"`
	StudyWarmLimit int      `json:"study_warm_limit"`
	StudyRaceRuns  int      `json:"study_race_runs"`
	StudyRounds    int      `json:"study_rounds"`

	// exhaustive_reduction: RunDFS on ExhDFS; RunSleepSetDFS on ExhDFS +
	// ExhSleepset; RunDPOR on those + ExhDPOR.
	ExhDFS      []string `json:"exhaustive_dfs"`
	ExhSleepset []string `json:"exhaustive_sleepset_extra"`
	ExhDPOR     []string `json:"exhaustive_dpor_extra"`
	ExhRounds   int      `json:"exhaustive_rounds"`

	// swarm_corpus: the registry minus SwarmExclude (or SwarmPrograms when
	// set), seeds {seed .. seed+SwarmSeeds-1}, SwarmBounds, SwarmLimit.
	SwarmPrograms []string `json:"swarm_programs,omitempty"`
	SwarmExclude  []string `json:"swarm_exclude,omitempty"`
	SwarmSeeds    int      `json:"swarm_seeds"`
	SwarmBounds   []int    `json:"swarm_bounds"`
	SwarmLimit    int      `json:"swarm_limit"`
	SwarmCycles   int      `json:"swarm_cycles"`

	// partition: complete DFS of PartitionJobs under the sequential, pool
	// and dist drivers with PartitionWorkers workers.
	PartitionJobs    []string `json:"partition_jobs"`
	PartitionWorkers int      `json:"partition_workers"`
	PartitionRounds  int      `json:"partition_rounds"`

	// ProbeScale scales the iteration counts of the per-layer probes.
	ProbeScale float64 `json:"probe_scale"`
	// ProbeLimit is the schedule limit of the bounded-technique probes.
	ProbeLimit int `json:"probe_limit"`
}

// unbounded is the schedule and execution budget of the searches that must
// run to completion.
const unbounded = 1 << 30

var fullSizes = sizes{
	SetupReps: 3,
	Pinned:    true,
	WarmLimit: 5000,

	StudyLimit:     400,
	StudyWarmLimit: 100,
	StudyRaceRuns:  10,
	StudyRounds:    3,

	ExhDFS: []string{"CB.aget-bug2", "CB.pbzip2-0.9.4", "CS.account_bad", "CS.arithmetic_prog_bad",
		"CS.circular_buffer_bad", "CS.din_phil3_sat", "CS.lazy01_bad", "CS.reorder_4_bad",
		"CS.token_ring_bad", "goidiom.workerpool_bad"},
	ExhSleepset: []string{"CS.wronglock_bad", "chess.WSQ", "CS.reorder_5_bad", "goidiom.pipeline_bad", "CS.din_phil5_sat"},
	ExhDPOR:     []string{"CS.din_phil6_sat"},
	ExhRounds:   3,

	SwarmExclude: []string{"radbench.bug1", "radbench.bug5", "CS.twostage_100_bad", "CS.reorder_10_bad",
		"CS.reorder_20_bad", "misc.safestack"},
	SwarmSeeds:  5,
	SwarmBounds: []int{2, 0},
	SwarmLimit:  1000,
	SwarmCycles: 20,

	PartitionJobs:    []string{"CS.token_ring_bad", "goidiom.workerpool_bad", "CS.reorder_4_bad", "CS.din_phil3_sat", "CB.aget-bug2"},
	PartitionWorkers: 2,
	PartitionRounds:  4,

	ProbeScale: 1,
	ProbeLimit: 200,
}

var smokeSizes = sizes{
	SetupReps: 1,
	WarmLimit: 50,

	// Covers the exhaustive sets below: the probes price every program's
	// steps once, over the study set.
	StudyPrograms:  []string{"CS.account_bad", "CS.lazy01_bad", "CS.circular_buffer_bad", "CB.pbzip2-0.9.4", "chess.WSQ"},
	StudyLimit:     40,
	StudyWarmLimit: 5,
	StudyRaceRuns:  10,
	StudyRounds:    1,

	ExhDFS:      []string{"CS.account_bad", "CS.lazy01_bad"},
	ExhSleepset: []string{"CS.circular_buffer_bad"},
	ExhDPOR:     []string{"CB.pbzip2-0.9.4"},
	ExhRounds:   1,

	SwarmPrograms: []string{"CS.account_bad", "CS.lazy01_bad", "CS.queue_bad", "CS.din_phil3_sat"},
	SwarmSeeds:    2,
	SwarmBounds:   []int{2, 0},
	SwarmLimit:    100,
	SwarmCycles:   1,

	PartitionJobs:    []string{"CS.account_bad", "CS.circular_buffer_bad"},
	PartitionWorkers: 2,
	PartitionRounds:  1,

	ProbeScale: 0.01,
	ProbeLimit: 10,
}

// refSeconds is the --seconds budget the round counts in sizes are for: the
// run_seconds of BENCHMARK.json.
const refSeconds = 20

// rounds scales a workload's round count to the --seconds budget. The count
// depends on --seconds alone, never on how fast this build happens to be,
// so the parent commit and a change always measure the same amount of work.
func rounds(seconds, refRounds int) int {
	return max(1, int(math.Round(float64(refRounds)*float64(seconds)/refSeconds)))
}

// resolve maps benchmark names to registry entries.
func resolve(names []string) ([]*bench.Benchmark, error) {
	out := make([]*bench.Benchmark, 0, len(names))
	for _, n := range names {
		b := bench.ByName(n)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q", n)
		}
		out = append(out, b)
	}
	return out, nil
}
