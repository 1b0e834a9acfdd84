package main

// In-process CLI tests for the study driver: exit statuses and the
// truncate → checkpoint → resume cycle, including that the resumed CSV
// artifact is byte-identical to an uninterrupted run's.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, nil, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodes(t *testing.T) {
	if code, _, _ := runCLI(t, "-table1"); code != exitClean {
		t.Errorf("-table1 exited %d, want %d", code, exitClean)
	}
	// A real (tiny) study on planted-bug benchmarks finds bugs: exit 1.
	code, _, errOut := runCLI(t, "-bench", "CS.account_bad$", "-limit", "100",
		"-par", "1", "-workers", "1")
	if code != exitBug {
		t.Fatalf("study exited %d, want %d\n%s", code, exitBug, errOut)
	}
	for _, args := range [][]string{
		{"-bench", "["},              // bad regexp
		{"-bench", "no.such.match$"}, // empty selection
		{"-no-such-flag"},            // bad flag
		{"-resume"},                  // -resume without -checkpoint
	} {
		if code, _, _ := runCLI(t, args...); code != exitError {
			t.Errorf("%v exited %d, want %d", args, code, exitError)
		}
	}
}

func TestTruncateAndResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	baseCSV := filepath.Join(dir, "base.csv")
	resCSV := filepath.Join(dir, "resumed.csv")
	ck := filepath.Join(dir, "study.json")
	sel := "CS.account_bad$|CS.queue_bad$"

	code, _, _ := runCLI(t, "-bench", sel, "-limit", "100", "-par", "1",
		"-workers", "1", "-table3csv", baseCSV)
	if code != exitBug {
		t.Fatalf("baseline exited %d, want %d", code, exitBug)
	}

	// An expired wall budget defers every row: exit 2, checkpoint written.
	code, _, errOut := runCLI(t, "-bench", sel, "-limit", "100", "-par", "1",
		"-workers", "1", "-max-wall", "1ns", "-checkpoint", ck)
	if code != exitTruncated {
		t.Fatalf("truncated study exited %d, want %d\n%s", code, exitTruncated, errOut)
	}
	if !strings.Contains(errOut, "study truncated") {
		t.Fatalf("missing truncation notice:\n%s", errOut)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no study checkpoint written: %v", err)
	}

	// Resume completes the deferred rows; the CSV artifact must match the
	// uninterrupted run byte for byte.
	code, _, errOut = runCLI(t, "-bench", sel, "-limit", "100", "-par", "1",
		"-workers", "1", "-checkpoint", ck, "-resume", "-table3csv", resCSV)
	if code != exitBug {
		t.Fatalf("resumed study exited %d, want %d\n%s", code, exitBug, errOut)
	}
	want, err := os.ReadFile(baseCSV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed CSV diverged:\n got:\n%s\nwant:\n%s", got, want)
	}

	// Resuming under a different seed is refused.
	if code, _, _ := runCLI(t, "-bench", sel, "-limit", "100", "-seed", "9",
		"-par", "1", "-workers", "1", "-checkpoint", ck, "-resume"); code != exitError {
		t.Errorf("seed-mismatched resume exited %d, want %d", code, exitError)
	}
}
