// Corpus replay benchmarks: cold executions-to-first-bug versus a
// corpus-seeded rerun that replays the stored witness (`go test -bench
// BenchmarkSwarmCorpusReplay .`; the end-to-end cold/warm pair is the
// swarm_corpus workload of benchmark/). The replay_execs_to_bug metric is the
// paper-independent payoff of the schedule corpus — a rerun reproduces
// every known bug in a handful of executions instead of a search.
package sctbench

import (
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/corpus"
	"sctbench/internal/explore"
)

// swarmReplayCells are (benchmark, technique) pairs whose cold search is
// expensive enough for the replay ratio to mean something.
var swarmReplayCells = []struct {
	bench string
	tech  explore.Technique
}{
	{"CS.account_bad", explore.IPB},
	{"CS.account_bad", explore.DFS},
	{"CS.queue_bad", explore.IPB},
	{"CS.queue_bad", explore.IDB},
}

// BenchmarkSwarmCorpusReplay runs, per iteration, a cold exploration into
// a fresh corpus followed by a corpus-seeded rerun, and reports both
// executions-to-first-bug figures plus the speedup factor.
func BenchmarkSwarmCorpusReplay(b *testing.B) {
	for _, cell := range swarmReplayCells {
		bm := bench.ByName(cell.bench)
		if bm == nil {
			b.Fatalf("unknown benchmark %s", cell.bench)
		}
		b.Run(cell.bench+"/"+cell.tech.String(), func(b *testing.B) {
			var coldExecs, warmExecs int
			for i := 0; i < b.N; i++ {
				store, err := corpus.Open(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				cfg := explore.Config{
					Program: bm.New(), BoundsCheck: bm.BoundsCheck,
					MaxSteps: bm.MaxSteps, Limit: explore.DefaultLimit,
					Corpus: store, ProgramHash: bm.Hash(),
				}
				cold := explore.Run(cell.tech, cfg)
				if !cold.BugFound {
					b.Fatalf("cold %s/%s missed the bug", cell.bench, cell.tech)
				}
				warm := explore.Run(cell.tech, cfg)
				if !warm.BugFound || !warm.CorpusHit {
					b.Fatalf("warm %s/%s: BugFound=%v CorpusHit=%v, want a stored-witness hit",
						cell.bench, cell.tech, warm.BugFound, warm.CorpusHit)
				}
				coldExecs += cold.Executions
				warmExecs += warm.Executions
			}
			n := float64(b.N)
			b.ReportMetric(float64(coldExecs)/n, "cold_execs_to_bug")
			b.ReportMetric(float64(warmExecs)/n, "replay_execs_to_bug")
			b.ReportMetric(float64(coldExecs)/float64(warmExecs), "speedup_x")
		})
	}
}
