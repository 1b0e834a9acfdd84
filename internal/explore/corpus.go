package explore

// Replay-first exploration against the schedule corpus. With Config.Corpus
// and Config.ProgramHash set, Run goes through three phases:
//
//  1. Witness replay. Every stored witness schedule is replayed on the
//     current program. The bug is still there — the result is reported
//     after a handful of executions instead of a full search, which is the
//     corpus's whole point. The bug is gone (the schedule diverges or runs
//     clean) — the stale witness is dropped from the entry.
//  2. Prefix probes. Each stored frontier prefix seeds one probe
//     execution: the prefix is replayed positionally and a deterministic
//     random chooser finishes the run (divergence falls back to the
//     random continuation). Probes only add executions in front of an
//     unchanged cold search, so a corpus-seeded exploration that runs to
//     completion reaches the same verdict as a cold one: if the complete
//     search finds no bug the space has none and no probe can find one
//     either, and if it finds a bug the seeded run reports a bug too —
//     possibly sooner.
//  3. The cold technique itself, unchanged. Afterwards the harvest: a
//     found witness is minimised (internal/simplify) and written back,
//     and a truncated sequential search contributes its deepest frontier
//     prefixes as seeds for the next run.
//
// Corpus I/O failures never fail the run (Result.CorpusError records the
// first one), mirroring the checkpoint writer's contract: losing
// persistence must not lose the search.

import (
	"sctbench/internal/corpus"
	"sctbench/internal/sched"
	"sctbench/internal/simplify"
	"sctbench/internal/vthread"
)

// maxFrontierPrefixes caps how many frontier prefixes one truncated run
// contributes; the deepest ones are kept (most search progress encoded).
const maxFrontierPrefixes = 16

// prefixProbe replays a stored prefix positionally, then hands the rest of
// the execution to a deterministic random chooser; a divergent prefix step
// (the recorded thread is not enabled — the program changed shape) falls
// through to the random continuation immediately.
type prefixProbe struct {
	prefix sched.Schedule
	rnd    vthread.Chooser
	step   int
}

func (p *prefixProbe) Choose(ctx vthread.Context) vthread.ThreadID {
	if p.step < len(p.prefix) {
		want := p.prefix[p.step]
		p.step++
		for _, id := range ctx.Enabled {
			if id == want {
				return want
			}
		}
		p.prefix = nil // diverged: random from here on
	}
	return p.rnd.Choose(ctx)
}

// probeSeed derives the probe chooser's seed from the run seed and the
// probe index, so probes are deterministic per (Seed, prefix position).
func probeSeed(seed uint64, idx int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// runReplayFirst is Run's corpus path; see the file comment for phases.
func runReplayFirst(t Technique, cfg Config) *Result {
	return replayFirst(t, t.String(), cfg, func(c Config) *Result { return runCold(t, c) })
}

// replayFirst wraps any cold search with the corpus phases. techName is
// the label written into stored witnesses ("DFS", "sleepset", …); t is
// the Technique recorded on early results, matching what cold would set.
func replayFirst(t Technique, techName string, cfg Config, cold func(Config) *Result) *Result {
	store, hash := cfg.Corpus, cfg.ProgramHash
	entry, _ := store.Get(hash)
	benchName := cfg.Meta.Benchmark
	if benchName == "" {
		benchName = entry.Benchmark
	}
	dcfg := cfg.withDefaults()

	replays, probes := 0, 0
	var corpusErr string
	var early *Result
	if len(entry.Witnesses) > 0 || len(entry.Prefixes) > 0 {
		ex := newExecutor(cfg)

		// Phase 1: stored witnesses, canonical order.
		for i := range entry.Witnesses {
			w := &entry.Witnesses[i]
			rep := vthread.NewReplay(w.Schedule)
			out := ex.RunWith(rep, nil, cfg.Program)
			replays++
			if out.Buggy() && !rep.Failed() {
				r := earlyBug(t, out, replays)
				r.CorpusHit = true
				if i > 0 {
					// The witnesses before this one went stale; drop them.
					entry.Witnesses = entry.Witnesses[i:]
					if err := store.Put(entry); err != nil {
						r.CorpusError = err.Error()
					}
				}
				early = r
				break
			}
		}

		if early == nil {
			if replays > 0 {
				// Every stored witness went stale: the bug (under those
				// schedules) is gone. Drop them; prefixes stay.
				entry.Witnesses = nil
				if err := store.Put(entry); err != nil {
					corpusErr = err.Error()
				}
			}

			// Phase 2: prefix-seeded probes, one execution per prefix.
			for i, p := range entry.Prefixes {
				probe := &prefixProbe{prefix: p, rnd: vthread.NewRandom(probeSeed(cfg.Seed, i))}
				out := ex.RunWith(probe, nil, cfg.Program)
				probes++
				if out.Buggy() {
					early = earlyBug(t, out, replays+probes)
					break
				}
			}
		}
		ex.Close()
	}

	var res *Result
	if early != nil {
		res = early
	} else {
		// Phase 3: the cold search, with frontier capture for the harvest.
		var frontier []sched.Schedule
		cfg.frontier = &frontier
		res = cold(cfg)
		if len(frontier) > 0 {
			if err := store.AddPrefixes(hash, benchName, frontier); err != nil && corpusErr == "" {
				corpusErr = err.Error()
			}
		}
	}
	res.CorpusReplays = replays
	res.CorpusProbes = probes
	res.Executions += replays + probes
	if res.CorpusError == "" {
		res.CorpusError = corpusErr
	}

	// Harvest: a freshly found witness (probe or cold search — a corpus
	// hit is already stored minimised) is minimised and written back.
	if res.BugFound && !res.CorpusHit && res.Witness != nil {
		wit := corpus.Witness{Technique: techName}
		min := simplify.Minimize(
			func() vthread.Runnable { return cfg.Program },
			res.Witness,
			simplify.Options{Visible: cfg.Visible, BoundsCheck: cfg.BoundsCheck, MaxSteps: dcfg.MaxSteps},
		)
		if min.Failure != nil {
			wit.Schedule = min.Schedule
			wit.PC, wit.DC = min.PC, min.DC
			wit.Kind = min.Failure.Kind.String()
			wit.Message = min.Failure.Message
		} else {
			// The witness did not survive deterministic re-replay (selects
			// or timers can do that); store it raw rather than lose it.
			wit.Schedule = res.Witness
			if res.Failure != nil {
				wit.Kind = res.Failure.Kind.String()
				wit.Message = res.Failure.Message
			}
		}
		if err := store.AddWitness(hash, benchName, wit); err != nil && res.CorpusError == "" {
			res.CorpusError = err.Error()
		}
	}
	return res
}

// earlyBug is the result of a replay-first phase whose n-th execution, out,
// reproduced a bug: the search itself never runs.
func earlyBug(t Technique, out *vthread.Outcome, n int) *Result {
	r := &Result{Technique: t, BugFound: true, Failure: out.Failure.Clone(), Witness: out.Trace.Clone(),
		Schedules: n, SchedulesToFirstBug: n, BuggySchedules: 1, TotalSteps: int64(len(out.Trace))}
	var s RunStats
	s.observe(out)
	s.foldInto(r)
	return r
}

// captureFrontier extracts the deepest unexplored-node prefixes from a
// truncated sequential search into cfg.frontier. Complete runs have no
// frontier; parallel runs don't capture (their frontier lives across
// workers — prefixes are a seeding heuristic, not a completeness
// artifact).
func captureFrontier(cfg Config, r *Result, eng searcher) {
	if cfg.frontier == nil || r.Complete {
		return
	}
	nodes := eng.snapshot().Nodes
	for _, nd := range nodes[max(0, len(nodes)-maxFrontierPrefixes):] {
		if len(nd.Order) > 0 {
			*cfg.frontier = append(*cfg.frontier, mapSlice(nd.Order, intToThread))
		}
	}
}
