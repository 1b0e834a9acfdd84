package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryHashes pins the corpus-key properties of the registry: every
// entry has a stable 16-hex-digit content hash, no two entries collide
// (the registry has no duplicate programs, so colliding keys would merge
// unrelated corpus entries), and the hash does not depend on the
// registry name (content addressing survives renames by construction —
// the name is simply never folded in). testdata/registry_hashes.txt pins
// every value: a hash that moves orphans that program's corpus entries and
// makes a dist worker of another build refuse its jobs, so a change to the
// substrate that alters one must be deliberate.
func TestRegistryHashes(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "registry_hashes.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		name, h, _ := strings.Cut(line, " ")
		pinned[name] = h
	}
	if len(pinned) != len(All()) {
		t.Errorf("registry_hashes.txt pins %d programs, the registry has %d", len(pinned), len(All()))
	}
	seen := make(map[string]string)
	for _, b := range All() {
		h := b.Hash()
		if len(h) != 16 {
			t.Fatalf("%s: hash %q is not 16 hex digits", b.Name, h)
		}
		if other, dup := seen[h]; dup {
			t.Fatalf("hash collision: %s and %s both hash to %s", other, b.Name, h)
		}
		seen[h] = b.Name
		if again := b.Hash(); again != h {
			t.Fatalf("%s: hash not stable across calls: %s vs %s", b.Name, h, again)
		}
		if pinned[b.Name] != h {
			t.Errorf("%s: hash %s, pinned %s", b.Name, h, pinned[b.Name])
		}
	}
}
