package corpus

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sctbench/internal/faultinject"
	"sctbench/internal/fsatomic"
	"sctbench/internal/sched"
)

func w(s ...sched.ThreadID) Witness {
	return Witness{Schedule: sched.Schedule(s), PC: 1, DC: 1, Kind: "assertion", Message: "m", Technique: "dfs"}
}

const h1 = "00000000000000a1"
const h2 = "00000000000000b2"

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddWitness(h1, "CS.demo", w(0, 1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddWitness(h1, "CS.demo", w(0, 1, 1, 2)); err != nil { // duplicate
		t.Fatal(err)
	}
	if err := s.AddWitness(h1, "CS.demo", w(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPrefixes(h1, "CS.demo", []sched.Schedule{{0, 0, 1}, {0}, {0, 0, 1}}); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	e, ok := re.Get(h1)
	if !ok {
		t.Fatalf("entry %s lost across reopen", h1)
	}
	if e.Benchmark != "CS.demo" {
		t.Errorf("benchmark = %q, want CS.demo", e.Benchmark)
	}
	if len(e.Witnesses) != 2 {
		t.Fatalf("got %d witnesses, want 2 (duplicate deduped): %+v", len(e.Witnesses), e.Witnesses)
	}
	if len(e.Prefixes) != 2 {
		t.Fatalf("got %d prefixes, want 2 (duplicate deduped): %v", len(e.Prefixes), e.Prefixes)
	}
	// Mutating the returned copy must not touch the store.
	e.Witnesses[0].Schedule[0] = 99
	e2, _ := re.Get(h1)
	if e2.Witnesses[0].Schedule[0] == 99 {
		t.Fatalf("Get returned an aliased entry")
	}
}

func TestPutDropsEmptyEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddWitness(h1, "CS.demo", w(0, 1)); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Get(h1)
	e.Witnesses = nil
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(h1); ok {
		t.Fatalf("emptied entry still present")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), h1+".json")); !os.IsNotExist(err) {
		t.Fatalf("emptied entry file still on disk: %v", err)
	}
}

func TestGC(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddWitness(h1, "", w(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddWitness(h2, "", w(1, 0)); err != nil {
		t.Fatal(err)
	}
	removed, err := s.GC(map[string]bool{h1: true})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d entries, want 1", removed)
	}
	if _, ok := s.Get(h2); ok {
		t.Fatalf("GC kept unreferenced entry %s", h2)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), h2+".json")); !os.IsNotExist(err) {
		t.Fatalf("GC left the entry file behind: %v", err)
	}
	if _, ok := s.Get(h1); !ok {
		t.Fatalf("GC removed a kept entry")
	}
}

func TestCorruptEntryIsAClearError(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, h1+".json")
	if err := os.WriteFile(bad, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if err == nil {
		t.Fatalf("Open accepted a corrupt entry")
	}
	if !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt-entry error does not name the file: %v", err)
	}

	// A well-formed file under the wrong name is corruption too: the
	// filename is the key.
	if err := os.WriteFile(bad, []byte(`{"hash":"feedfacecafebeef"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("Open accepted a mis-keyed entry: %v", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := fsatomic.WriteFile(filepath.Join(dir, "VERSION"), []byte("sctcorpus/v0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "sctcorpus/v0") {
		t.Fatalf("Open accepted a foreign corpus version: %v", err)
	}
}

// TestKillMidWrite arms the CorpusWrite crash point and proves the update
// is lost atomically: the failed write reports the simulated death and the
// previous entry file stays byte-identical.
func TestKillMidWrite(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddWitness(h1, "CS.demo", w(0, 1)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, h1+".json"))
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.CorpusWrite, 1)
	err = s.AddWitness(h1, "CS.demo", w(1, 0))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed write returned %v, want ErrInjected", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, h1+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("crashed write altered the old entry:\nbefore: %s\nafter: %s", before, after)
	}

	// The process "reboots": a fresh Open sees exactly the old entry.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := re.Get(h1)
	if !ok || len(e.Witnesses) != 1 || !e.Witnesses[0].Schedule.Equal(sched.Schedule{0, 1}) {
		t.Fatalf("rebooted store does not hold the pre-crash entry: %+v", e)
	}
}

// TestGoldenFormat pins the on-disk layout: a fixed entry must serialise
// to exactly the bytes in testdata/golden_entry.json, and the VERSION file
// to the pinned format string. A diff here means the corpus format changed
// — bump Version and regenerate the golden file deliberately.
func TestGoldenFormat(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	version, err := os.ReadFile(filepath.Join(dir, "VERSION"))
	if err != nil {
		t.Fatal(err)
	}
	if string(version) != Version+"\n" {
		t.Fatalf("VERSION file holds %q, want %q", version, Version+"\n")
	}

	const gh = "00d15ea5edc0ffee"
	if err := s.Put(Entry{
		Hash:      gh,
		Benchmark: "CS.account_bad",
		Witnesses: []Witness{
			{Schedule: sched.Schedule{0, 2, 1, 1}, PC: 2, DC: 2, Kind: "deadlock", Technique: "ipb"},
			{Schedule: sched.Schedule{0, 1, 2, 1}, PC: 1, DC: 1, Kind: "assertion", Message: "account overdrawn: balance=-50", Technique: "dfs"},
		},
		Prefixes: []sched.Schedule{{0, 1, 2}, {0, 0}},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, gh+".json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_entry.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("entry layout drifted from testdata/golden_entry.json:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
