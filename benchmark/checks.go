package main

import (
	"embed"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// checker counts the operations a run attempted and the ones whose
// correctness check failed. A failed operation fails the run: a count that
// drifts or a witness that no longer reproduces must never read as a
// speed-up.
type checker struct {
	attempted int
	failed    int
	failures  []string
}

// op records one attempted operation; msgs are the reasons it failed (none
// = it passed).
func (c *checker) op(msgs ...string) {
	c.attempted++
	if len(msgs) == 0 {
		return
	}
	c.failed++
	const keep = 20 // enough to diagnose; a systematic failure repeats itself
	for _, m := range msgs {
		if len(c.failures) < keep {
			c.failures = append(c.failures, m)
		}
	}
}

// kindProblems checks that a failure is of the kind the benchmark plants.
// The dining philosophers (CS.din_phil*_sat) carry, as their registry
// description says, "a real deadlock" beside the planted assertion, and
// the random scheduler reaches it first under some seeds; it is the one
// second failure the registry documents.
func kindProblems(b *bench.Benchmark, label string, kind vthread.FailureKind) []string {
	if kind == b.BugKind {
		return nil
	}
	if strings.HasPrefix(b.Name, "CS.din_phil") && kind == vthread.FailDeadlock {
		return nil
	}
	return []string{fmt.Sprintf("%s %s: failure kind %s, benchmark plants %s", b.Name, label, kind, b.BugKind)}
}

// bugProblems checks one found bug: the failure is of the kind the
// benchmark plants, and its witness reproduces the same failure on the
// goroutine reference engine — an interpreter independent of the flat
// engine the searches run on (sctbench.ReplayVisible plus the benchmark's
// BoundsCheck/MaxSteps). It returns the reasons the check failed.
func bugProblems(b *bench.Benchmark, label string, f *vthread.Failure, witness sched.Schedule, visible func(string) bool) []string {
	if f == nil {
		return []string{fmt.Sprintf("%s %s: bug found but no failure recorded", b.Name, label)}
	}
	out := kindProblems(b, label, f.Kind)
	rep := vthread.NewReplay(witness)
	got := vthread.NewWorld(vthread.Options{
		Chooser: rep, Visible: visible, BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps,
	}).Run(vthread.AsProgram(b.New()))
	switch {
	case rep.Failed():
		out = append(out, fmt.Sprintf("%s %s: witness diverges at step %d on the reference engine", b.Name, label, rep.FailStep()))
	case got.Failure == nil:
		out = append(out, fmt.Sprintf("%s %s: witness replays clean on the reference engine", b.Name, label))
	case *got.Failure != *f:
		out = append(out, fmt.Sprintf("%s %s: witness replays to %q, search reported %q", b.Name, label, got.Failure, f))
	}
	return out
}

// resultProblems is bugProblems for an exploration result (no bug = no
// problems).
func resultProblems(b *bench.Benchmark, label string, r *explore.Result, visible func(string) bool) []string {
	if r == nil || !r.BugFound {
		return nil
	}
	return bugProblems(b, label, r.Failure, r.Witness, visible)
}

// sameCounts reports how the exact counts of two rounds differ.
func sameCounts(what string, want, got map[string]int64) []string {
	var out []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			out = append(out, fmt.Sprintf("%s: count %s = %d, want %d", what, k, g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%s: unexpected count %s", what, k))
		}
	}
	return out
}

// digest folds a byte-exact artefact (a CSV) into a count, so "the bytes
// repeat" is checked with the other exact counts.
func digest(s string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // hash.Hash.Write never fails
	return int64(h.Sum64() >> 1)
}

// expected holds the committed pins: outputs of the seed commit that must
// not drift. They are compiled in, so a run checks against the pins of the
// benchmark it was built from wherever it is started.
//
//go:embed expected
var expected embed.FS

// updatePinsEnv, when it names the expected/ source directory, makes a run
// rewrite the pins instead of checking them (an explicit, reviewed act: a
// pin only ever changes in a benchmark correction).
const updatePinsEnv = "SCT_BENCH_UPDATE_PINS"

// pinProblems compares an artefact with its committed pin.
func pinProblems(name, got string) []string {
	if dir := os.Getenv(updatePinsEnv); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(got), 0o644); err != nil {
			return []string{fmt.Sprintf("pin %s: %v", name, err)}
		}
		return nil
	}
	want, err := expected.ReadFile("expected/" + name)
	if err != nil {
		return []string{fmt.Sprintf("pin %s: %v", name, err)}
	}
	if string(want) != got {
		return []string{fmt.Sprintf("pin %s: output differs from the committed pin (%d bytes, want %d)", name, len(got), len(want))}
	}
	return nil
}
