package bench

// Registry-level equivalence suite. Every compiled benchmark runs on the
// flat single-goroutine engine (New()) and on the goroutine reference
// engine under identical choosers — deterministic round-robin plus a spread
// of random seeds — and the two executions must be indistinguishable: same
// trace, same outcome counters, same failure (or clean exit), and the same
// event stream key by key. On the reference engine runs the compiled
// program's blocking bridge (vthread.AsProgram), or CS.account_bad's
// hand-written closure twin (Ref). The bridge shares the flat interpreter,
// so it checks the engines' scheduling and event plumbing only; the
// instructions themselves are checked against hand-written closure code by
// internal/vthread's generated-program tests, and vthread_test's
// TestRegistryOpcodesCovered holds those to every instruction the registry
// uses.

import (
	"fmt"
	"slices"
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

// keptTwins names the benchmarks that carry a Ref twin: the goroutine-engine
// sample the executor benchmarks and the ledger's probes read.
var keptTwins = []string{"CS.account_bad"}

// runLogged executes program once on a fresh Executor and returns the
// outcome (trace cloned out of the recycled buffer) and the event log.
func runLogged(b *Benchmark, program vthread.Runnable, seed uint64) (*vthread.Outcome, string, vthread.StepStats) {
	log := vthread.NewTraceLogger()
	e := vthread.NewExecutor(vthread.Options{
		MaxSteps:    b.MaxSteps,
		BoundsCheck: b.BoundsCheck,
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
// versus, on the goroutine engine, Ref() where a twin is kept and the
// AsProgram bridge otherwise, under every chooser in the spread.
func TestCompiledMatchesReference(t *testing.T) {
	var twins []string
	for _, b := range All() {
		if b.Ref != nil {
			twins = append(twins, b.Name)
		}
		if _, compiled := b.New().(*vthread.CompiledProgram); !compiled {
			// misc.safestack is the one deliberate closure-only entry: the
			// live exerciser of the goroutine reference engine.
			if b.Name != "misc.safestack" || b.Ref != nil {
				t.Errorf("%s: New() is not a *CompiledProgram", b.Name)
			}
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ref := func() vthread.Runnable { return vthread.AsProgram(b.New()) }
			if b.Ref != nil {
				ref = func() vthread.Runnable { return b.Ref() }
			}
			for _, seed := range equivSeeds {
				flat, flatLog, fstats := runLogged(b, b.New(), seed)
				want, refLog, rstats := runLogged(b, ref(), seed)
				if fstats.FlatSteps == 0 || rstats.FlatSteps != 0 {
					t.Fatalf("seed %d: flat steps %d (compiled), %d (reference); want some, none",
						seed, fstats.FlatSteps, rstats.FlatSteps)
				}
				diffOutcome(t, tagFor(seed), flat, want, flatLog, refLog)
			}
		})
	}
	slices.Sort(twins)
	if !slices.Equal(twins, keptTwins) {
		t.Fatalf("benchmarks carrying a Ref twin: %v, want %v", twins, keptTwins)
	}
}

// TestCompiledBridgeMatchesFlat runs the same compiled program on the flat
// engine and through its AsProgram bridge on the goroutine engine: the
// bridge must reproduce the flat engine's execution exactly. A quick check
// on a representative slice (one per suite); the previous test makes the
// same comparison for every program without a twin.
func TestCompiledBridgeMatchesFlat(t *testing.T) {
	names := []string{
		"CS.twostage_bad", "chess.WSQ", "parsec.streamcluster",
		"radbench.bug6", "splash2.fft", "goidiom.workerpool_bad",
		"gotime.timeout_vs_result_bad",
	}
	for _, name := range names {
		b := ByName(name)
		if b == nil {
			t.Fatalf("%s: not in registry", name)
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range equivSeeds[:4] {
				flat, flatLog, _ := runLogged(b, b.New(), seed)
				bridged, bridgedLog, bstats := runLogged(b, vthread.AsProgram(b.New()), seed)
				if bstats.FlatSteps != 0 {
					t.Fatalf("seed %d: the bridged run used the flat engine (stats %+v)", seed, bstats)
				}
				diffOutcome(t, tagFor(seed), flat, bridged, flatLog, bridgedLog)
			}
		})
	}
}

// TestCompiledReplayRoundTrip: a witness trace recorded on the flat engine
// replays on the reference engine — against the closure twin where one is
// kept, through the blocking bridge otherwise — for every registry program.
// This is what makes engine choice invisible to Replay users.
func TestCompiledReplayRoundTrip(t *testing.T) {
	for _, b := range All() {
		t.Run(b.Name, func(t *testing.T) {
			ref := vthread.AsProgram(b.New())
			if b.Ref != nil {
				ref = b.Ref()
			}
			flat, _, _ := runLogged(b, b.New(), 7)
			rep := vthread.NewReplay(flat.Trace)
			out := vthread.NewWorld(vthread.Options{
				Chooser: rep, MaxSteps: b.MaxSteps, BoundsCheck: b.BoundsCheck,
			}).Run(ref)
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
