package corpus

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzCorpusEntry opens a corpus directory holding one fuzzed entry file:
// Open must fail with an error or load an entry that is usable — stored under
// its file's hash, every witness step naming a thread, and written back by
// Put to a directory that opens again. Run it with
// `go test -run xxx -fuzz FuzzCorpusEntry ./internal/corpus/`.
func FuzzCorpusEntry(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_entry.json"))
	if err != nil {
		f.Fatal(err)
	}
	const hash = "00d15ea5edc0ffee" // golden_entry.json's
	f.Add(golden)
	f.Add([]byte(`{"hash":"00d15ea5edc0ffee","witnesses":[{"schedule":[0,-1]}]}`))
	f.Add([]byte(`{"hash":"00d15ea5edc0ffee","prefixes":[[],[3,1],[3,1]]}`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, hash+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		e, ok := s.Get(hash)
		if !ok || s.Len() != 1 {
			t.Fatalf("Open loaded %d entries, entry %s present %v", s.Len(), hash, ok)
		}
		for _, w := range e.Witnesses {
			for i, id := range w.Schedule {
				if id < 0 {
					t.Fatalf("loaded witness step %d names thread %d", i, id)
				}
			}
		}
		if err := s.Put(e); err != nil {
			t.Fatalf("Put of a loaded entry: %v", err)
		}
		if _, err := Open(dir); err != nil {
			t.Fatalf("reopen after Put: %v", err)
		}
	})
}
