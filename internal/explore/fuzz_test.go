package explore

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"sctbench/internal/bench"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to LoadCheckpoint and resumes
// whatever loads, on a small program under a capped budget: every input must
// end in an error or a result — never a panic, a hang or an unbounded
// allocation. The corpus is seeded with every pinned checkpoint file, both
// shapes and both versions — the version-1 unit-set files also as the
// version-2 files this build writes of them — with the version-2 files
// whose buggy runs must be rejected, with the walker frontiers whose sleep
// sets or thread counts must be (badWalkerFrontiers), and with the bounded
// frontiers whose costs or prefix costs must be (badBoundedFrontiers). Run
// it with `go test -run xxx -fuzz FuzzLoadCheckpoint`.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	for _, name := range []string{"golden_checkpoint.json", "golden_pool_checkpoint.json", "bad_runs_checkpoint.json"} {
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
			path := filepath.Join(dir, "v1.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				f.Fatal(err)
			}
			if ck, err := LoadCheckpoint(path); err == nil && ck.Pool != nil {
				v2, err := json.Marshal(ck)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(v2)
			}
		}
	}
	// The sleep sets and thread counts restoreDPOR must reject.
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_checkpoint.json"))
	if err != nil {
		f.Fatal(err)
	}
	var files map[string]json.RawMessage
	if err := json.Unmarshal(blob, &files); err != nil {
		f.Fatal(err)
	}
	var base Checkpoint
	if err := json.Unmarshal(files["dpor"], &base); err != nil {
		f.Fatal(err)
	}
	// The costs and prefix costs restoreBounded must reject.
	var dfs, ipb Checkpoint
	if err := json.Unmarshal(files["dfs"], &dfs); err != nil {
		f.Fatal(err)
	}
	if err := json.Unmarshal(files["ipb"], &ipb); err != nil {
		f.Fatal(err)
	}
	bad := badWalkerFrontiers(&base)
	maps.Copy(bad, badBoundedFrontiers(&dfs, &ipb))
	for _, ck := range bad {
		bad, err := json.Marshal(ck)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bad)
	}
	b := bench.ByName("CS.account_bad")
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
