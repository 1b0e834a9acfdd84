package bench

// Registry-level equivalence suite: every benchmark that migrated to the
// compiled form carries its original closure program in the Ref field, and
// this test is the reason why. For each such pair it executes New() on the
// flat single-goroutine engine and Ref() on the goroutine reference engine
// under identical choosers — deterministic round-robin plus a spread of
// random seeds — and requires the two executions to be indistinguishable:
// same trace, same outcome counters, same failure (or clean exit), and the
// same event stream key by key. This is the op-for-op translation contract
// of internal/vthread's doc.go enforced over the whole registry, so a
// compiled benchmark that drifts from its closure twin by even one visible
// operation fails here before it can skew any Table 3 number.

import (
	"fmt"
	"testing"

	"sctbench/internal/vthread"
)

// equivSeeds is the random-chooser spread; seed 0 means round-robin.
var equivSeeds = []uint64{0, 1, 2, 3, 5, 8, 13, 21}

func chooserFor(seed uint64) vthread.Chooser {
	if seed == 0 {
		return vthread.RoundRobin()
	}
	return vthread.NewRandom(seed)
}

// runLogged executes program once on a fresh Executor and returns the
// outcome (trace cloned out of the recycled buffer) and the event log.
func runLogged(b *Benchmark, program vthread.Runnable, seed uint64, noFlat bool) (*vthread.Outcome, string, vthread.StepStats) {
	log := vthread.NewTraceLogger()
	e := vthread.NewExecutor(vthread.Options{
		MaxSteps:    b.MaxSteps,
		BoundsCheck: b.BoundsCheck,
		Debug:       vthread.Debug{NoFlatEngine: noFlat},
	})
	defer e.Close()
	out := e.RunWith(chooserFor(seed), log, program)
	cp := *out
	cp.Trace = out.Trace.Clone()
	return &cp, log.String(), e.StepStats()
}

// sameFailure compares two failures as their keepers would see them:
// formatted (Clone), message included.
func sameFailure(a, b *vthread.Failure) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a.Clone() == *b.Clone()
}

func diffOutcome(t *testing.T, tag string, flat, ref *vthread.Outcome, flatLog, refLog string) {
	t.Helper()
	if !flat.Trace.Equal(ref.Trace) {
		t.Errorf("%s: traces differ\nflat %v\nref  %v", tag, flat.Trace, ref.Trace)
	}
	if !sameFailure(flat.Failure, ref.Failure) {
		t.Errorf("%s: failures differ\nflat %v\nref  %v", tag, flat.Failure, ref.Failure)
	}
	if flat.PC != ref.PC || flat.DC != ref.DC ||
		flat.SchedPoints != ref.SchedPoints || flat.SelectPoints != ref.SelectPoints ||
		flat.TimerPoints != ref.TimerPoints || flat.MaxEnabled != ref.MaxEnabled ||
		flat.Threads != ref.Threads || flat.StepLimitHit != ref.StepLimitHit {
		t.Errorf("%s: outcome counters differ\nflat %+v\nref  %+v", tag, flat, ref)
	}
	if flatLog != refLog {
		t.Errorf("%s: event streams differ\nflat:\n%s\nref:\n%s", tag, flatLog, refLog)
	}
}

// TestCompiledMatchesReference is the pairwise oracle: flat-engine New()
// versus goroutine-engine Ref() under every chooser in the spread.
func TestCompiledMatchesReference(t *testing.T) {
	paired := 0
	for _, b := range All() {
		if b.Ref == nil {
			continue
		}
		paired++
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if _, compiled := b.New().(*vthread.CompiledProgram); !compiled {
				t.Fatalf("%s declares a Ref twin but New() is not a *CompiledProgram", b.Name)
			}
			for _, seed := range equivSeeds {
				flat, flatLog, fstats := runLogged(b, b.New(), seed, false)
				ref, refLog, _ := runLogged(b, vthread.Runnable(b.Ref()), seed, false)
				if fstats.FlatSteps == 0 {
					t.Fatalf("seed %d: compiled program took no flat steps — flat engine not engaged", seed)
				}
				diffOutcome(t, tagFor(seed), flat, ref, flatLog, refLog)
			}
		})
	}
	// misc.safestack is the one deliberate closure-only entry left: the
	// live exerciser of the goroutine reference engine and the automatic
	// fallback path. Everything else must be paired.
	if want := len(All()) - 1; paired != want {
		t.Fatalf("%d benchmarks carry a Ref twin, want %d (all but the closure-form misc.safestack)", paired, want)
	}
}

// TestCompiledBridgeMatchesFlat runs the same compiled program with and
// without Debug.NoFlatEngine: the blocking bridge onto the goroutine
// engine must reproduce the flat engine's execution exactly. Exercised on
// a representative slice (one per suite) to keep the run short — the
// per-instruction semantics it checks do not vary per benchmark.
func TestCompiledBridgeMatchesFlat(t *testing.T) {
	names := []string{
		"CS.twostage_bad", "chess.WSQ", "parsec.streamcluster",
		"radbench.bug6", "splash2.fft", "goidiom.workerpool_bad",
		"gotime.timeout_vs_result_bad",
	}
	for _, name := range names {
		b := ByName(name)
		if b == nil || b.Ref == nil {
			t.Fatalf("%s: not in registry or not migrated", name)
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range equivSeeds[:4] {
				flat, flatLog, _ := runLogged(b, b.New(), seed, false)
				bridged, bridgedLog, bstats := runLogged(b, b.New(), seed, true)
				if bstats.FlatSteps != 0 || bstats.FlatFallbacks == 0 {
					t.Fatalf("seed %d: NoFlatEngine run still used the flat engine (stats %+v)", seed, bstats)
				}
				diffOutcome(t, tagFor(seed), flat, bridged, flatLog, bridgedLog)
			}
		})
	}
}

// TestCompiledReplayRoundTrip: a witness trace recorded on the flat engine
// replays on the reference engine against the closure twin, and vice
// versa. This is what makes engine choice invisible to Replay users.
func TestCompiledReplayRoundTrip(t *testing.T) {
	for _, name := range []string{"CS.reorder_4_bad", "goidiom.pipeline_bad", "radbench.bug2"} {
		b := ByName(name)
		if b == nil || b.Ref == nil {
			t.Fatalf("%s: not in registry or not migrated", name)
		}
		t.Run(name, func(t *testing.T) {
			flat, _, _ := runLogged(b, b.New(), 7, false)
			rep := vthread.NewReplay(flat.Trace)
			out := vthread.NewWorld(vthread.Options{
				Chooser: rep, MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
			}).Run(b.Ref())
			if rep.Failed() {
				t.Fatalf("flat witness diverged on the reference engine at step %d", rep.FailStep())
			}
			if !out.Trace.Equal(flat.Trace) || !sameFailure(out.Failure, flat.Failure) {
				t.Fatalf("flat witness did not reproduce on the reference engine:\nflat %v %v\nref  %v %v",
					flat.Trace, flat.Failure, out.Trace, out.Failure)
			}
		})
	}
}

func tagFor(seed uint64) string {
	if seed == 0 {
		return "round-robin"
	}
	return fmt.Sprintf("seed %d", seed)
}
