package explore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sctbench/internal/bench"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to LoadCheckpoint and resumes
// whatever loads, on a small program under a capped budget: every input must
// end in an error or a result — never a panic, a hang or an unbounded
// allocation. The corpus is seeded with every pinned checkpoint file, both
// shapes. Run it with `go test -run xxx -fuzz FuzzLoadCheckpoint`.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, name := range []string{"golden_checkpoint.json", "golden_pool_checkpoint.json"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		var files map[string]json.RawMessage
		if err := json.Unmarshal(blob, &files); err != nil {
			f.Fatal(err)
		}
		for _, raw := range files {
			f.Add([]byte(raw))
		}
	}
	b := bench.ByName("CS.account_bad")
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		ck.Limit = min(ck.Limit, 60)
		if ck.MaxExecutions <= 0 || ck.MaxExecutions > 600 {
			ck.MaxExecutions = 600
		}
		if ck.MaxBound <= 0 || ck.MaxBound > 6 {
			ck.MaxBound = 6
		}
		res, err := Resume(ck, Config{Program: b.New(), BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps})
		if (res == nil) == (err == nil) {
			t.Fatalf("Resume returned result %v and error %v", res, err)
		}
	})
}
