package main

// In-process CLI tests: the exit-status contract (0 clean, 1 bug, 2
// truncated, 3 error) and the interrupt → checkpoint → resume cycle, as
// promised in the README.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sctbench/internal/explore"
	"sctbench/internal/faultinject"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, nil, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodes(t *testing.T) {
	// Bug found: the expected outcome on a planted-bug benchmark.
	code, out, _ := runCLI(t, "-bench", "CS.account_bad", "-technique", "dfs",
		"-limit", "200", "-workers", "1", "-norace")
	if code != exitBug {
		t.Fatalf("bug run exited %d, want %d\n%s", code, exitBug, out)
	}
	// Clean: one canonical schedule is not enough to trip the account bug.
	code, out, _ = runCLI(t, "-bench", "CS.account_bad", "-technique", "dfs",
		"-limit", "1", "-workers", "1", "-norace")
	if code != exitClean {
		t.Fatalf("limit-1 run exited %d, want %d\n%s", code, exitClean, out)
	}
	// Errors: unknown benchmark, unknown technique, bad flag.
	for _, args := range [][]string{
		{"-bench", "no.such.benchmark"},
		{"-bench", "CS.account_bad", "-technique", "quantum"},
		{"-no-such-flag"},
	} {
		if code, _, _ := runCLI(t, args...); code != exitError {
			t.Errorf("%v exited %d, want %d", args, code, exitError)
		}
	}
}

func TestTruncateAndResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	base, baseOut, _ := runCLI(t, "-bench", "CS.account_bad", "-technique", "dfs",
		"-limit", "200", "-workers", "1", "-norace")
	if base != exitBug {
		t.Fatalf("baseline exited %d", base)
	}

	// An already-expired wall budget truncates at the first poll.
	code, out, _ := runCLI(t, "-bench", "CS.account_bad", "-technique", "dfs",
		"-limit", "200", "-workers", "1", "-norace", "-max-wall", "1ns", "-checkpoint", ck)
	if code != exitTruncated {
		t.Fatalf("truncated run exited %d, want %d\n%s", code, exitTruncated, out)
	}
	if !strings.Contains(out, "search truncated") || !strings.Contains(out, ck) {
		t.Fatalf("truncation notice missing:\n%s", out)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Resume finishes the search; everything after the resume banner must
	// match the uninterrupted run verbatim (bit-identical counts/witness).
	code, out, _ = runCLI(t, "-resume", ck, "-workers", "1")
	if code != exitBug {
		t.Fatalf("resumed run exited %d, want %d\n%s", code, exitBug, out)
	}
	_, tail, ok := strings.Cut(out, "\n")
	if !ok || !strings.HasPrefix(out, "resuming DFS CS.account_bad") {
		t.Fatalf("missing resume banner:\n%s", out)
	}
	if tail != baseOut {
		t.Fatalf("resumed output diverged:\n got:\n%s\nwant:\n%s", tail, baseOut)
	}

	// A checkpoint for one benchmark refuses to resume as another.
	if code, _, _ := runCLI(t, "-resume", ck, "-bench", "CS.queue_bad"); code != exitError {
		t.Fatalf("mismatched -bench on resume exited %d, want %d", code, exitError)
	}
}

// TestWorkerPanicWarning: a contained exploration-worker panic must be
// surfaced on stderr — the counts are lower bounds, and a user reading
// only the summary line would otherwise mistake them for full coverage.
func TestWorkerPanicWarning(t *testing.T) {
	faultinject.Arm(faultinject.PoolUnitPanic, 1)
	t.Cleanup(faultinject.Reset)
	code, _, errOut := runCLI(t, "-bench", "CS.account_bad", "-technique", "dfs",
		"-limit", "200", "-workers", "2", "-norace")
	if code != exitBug && code != exitClean {
		t.Fatalf("panic-containing run exited %d, want %d or %d", code, exitBug, exitClean)
	}
	if !strings.Contains(errOut, "worker(s) panicked") ||
		!strings.Contains(errOut, "lower bounds") {
		t.Fatalf("missing worker-panic warning on stderr:\n%s", errOut)
	}
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(p, []byte("{half a checkpoi"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCLI(t, "-resume", p)
	if code != exitError {
		t.Fatalf("corrupt checkpoint exited %d, want %d", code, exitError)
	}
	if !strings.Contains(errOut, "corrupt or truncated") {
		t.Fatalf("error does not say what is wrong: %s", errOut)
	}
}

// TestResumeRejectsMisfitFrontier: a checkpoint whose frontier names a thread
// the program never offers is an error with a message (status 3) — not a Go
// runtime crash, whose status 2 would read as "truncated, no bug".
func TestResumeRejectsMisfitFrontier(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	p := filepath.Join(t.TempDir(), "ck.json")
	faultinject.Arm(faultinject.ExploreInterrupt, 6)
	code, out, _ := runCLI(t, "-bench", "CS.account_bad", "-technique", "dfs",
		"-limit", "200", "-workers", "1", "-norace", "-checkpoint", p)
	faultinject.Reset()
	if code != exitTruncated {
		t.Fatalf("interrupted run exited %d, want %d\n%s", code, exitTruncated, out)
	}
	ck, err := explore.LoadCheckpoint(p)
	if err != nil {
		t.Fatal(err)
	}
	ck.Engine.Nodes[1].Order[0] = 77
	if err := ck.Save(p); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCLI(t, "-resume", p, "-workers", "1")
	if code != exitError {
		t.Fatalf("misfit checkpoint exited %d, want %d", code, exitError)
	}
	if !strings.Contains(errOut, "frontier does not fit this program") {
		t.Fatalf("error does not say what is wrong: %s", errOut)
	}
}
