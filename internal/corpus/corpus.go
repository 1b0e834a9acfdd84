// Package corpus is the persistent schedule corpus: an on-disk store of
// minimised witness schedules and canonical frontier prefixes, keyed by
// program content hash (vthread.ProgramHash). It turns exploration into an
// incremental workload — a re-run after a code change replays the corpus
// first (bug still present: reported in milliseconds; bug gone: the entry
// is dropped) and seeds the fresh search from stored prefixes — and gives
// swarm runs a shared sink for everything they find.
//
// # Layout
//
// A corpus directory holds a VERSION file pinning the format plus one JSON
// entry file per program hash:
//
//	<dir>/VERSION            "sctcorpus/v1\n"
//	<dir>/<hash>.json        one Entry, canonical indented JSON
//
// Every write goes through internal/fsatomic, so after any crash each
// entry file is either the previous complete version or the new complete
// version, never torn (the faultinject.CorpusWrite point simulates dying
// just before the write). Entries are canonicalised before serialisation —
// witnesses and prefixes sorted and deduplicated, no timestamps — so the
// same logical content always produces byte-identical files, which is what
// lets tests and CI diff corpus directories directly.
//
// Keying by content hash rather than registry name means entries survive
// benchmark renames and invalidate on semantic change; a stale hash's
// entry is simply never looked up again and is reclaimed by GC.
package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sctbench/internal/faultinject"
	"sctbench/internal/fsatomic"
	"sctbench/internal/sched"
)

// Version is the corpus format version. Open refuses a directory written
// by a different version: schedule semantics may have changed underneath
// it, and replaying foreign-format schedules silently would be worse than
// starting cold.
const Version = "sctcorpus/v1"

// MaxPrefixes caps the stored frontier prefixes per entry. Prefixes are a
// seeding heuristic, not a completeness artifact; a handful of deep ones
// beat an unbounded pile.
const MaxPrefixes = 64

// Witness is one stored bug witness: a minimised schedule plus what it
// exposes. Schedules are replayed positionally (vthread.NewReplay), so the
// witness reproduces only while the program's scheduling structure is
// unchanged — which is exactly what the content-hash key guarantees.
type Witness struct {
	// Schedule is the minimised thread-choice sequence.
	Schedule sched.Schedule `json:"schedule"`
	// PC and DC are the schedule's preemption and delay counts.
	PC int `json:"pc"`
	DC int `json:"dc"`
	// Kind is the failure class ("assertion", "deadlock", "crash",
	// "panic") and Message its human-readable description.
	Kind    string `json:"kind"`
	Message string `json:"message,omitempty"`
	// Technique names the search that found the witness (informational).
	Technique string `json:"technique,omitempty"`
}

// Entry is everything the corpus knows about one program hash.
type Entry struct {
	// Hash is the program content hash — the entry's identity and
	// filename stem.
	Hash string `json:"hash"`
	// Benchmark is the registry name the program carried when last
	// written. Informational only: lookups never use it, so entries
	// survive renames.
	Benchmark string `json:"benchmark,omitempty"`
	// Witnesses are the known minimised bug witnesses, canonically sorted.
	Witnesses []Witness `json:"witnesses,omitempty"`
	// Prefixes are canonical schedule prefixes from earlier runs'
	// frontiers, used to seed fresh searches.
	Prefixes []sched.Schedule `json:"prefixes,omitempty"`
}

// empty reports whether the entry carries no information worth a file.
func (e *Entry) empty() bool { return len(e.Witnesses) == 0 && len(e.Prefixes) == 0 }

// clone deep-copies the entry so callers can mutate their view freely.
func (e *Entry) clone() Entry {
	out := Entry{Hash: e.Hash, Benchmark: e.Benchmark}
	if len(e.Witnesses) > 0 {
		out.Witnesses = make([]Witness, len(e.Witnesses))
		for i, w := range e.Witnesses {
			out.Witnesses[i] = w
			out.Witnesses[i].Schedule = w.Schedule.Clone()
		}
	}
	if len(e.Prefixes) > 0 {
		out.Prefixes = make([]sched.Schedule, len(e.Prefixes))
		for i, p := range e.Prefixes {
			out.Prefixes[i] = p.Clone()
		}
	}
	return out
}

// canonicalise sorts and deduplicates the entry in place: witnesses by
// (schedule, kind, technique) with equal schedules deduplicated, prefixes
// by (length, content) deduplicated and capped at MaxPrefixes. The result
// is a pure function of the entry's logical content, which makes the
// serialised form byte-stable.
func (e *Entry) canonicalise() {
	sort.SliceStable(e.Witnesses, func(i, j int) bool {
		a, b := &e.Witnesses[i], &e.Witnesses[j]
		if sa, sb := a.Schedule.String(), b.Schedule.String(); sa != sb {
			return sa < sb
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Technique < b.Technique
	})
	ws := e.Witnesses[:0]
	for i := range e.Witnesses {
		if len(ws) > 0 && ws[len(ws)-1].Schedule.Equal(e.Witnesses[i].Schedule) {
			continue
		}
		ws = append(ws, e.Witnesses[i])
	}
	e.Witnesses = ws
	sort.SliceStable(e.Prefixes, func(i, j int) bool {
		a, b := e.Prefixes[i], e.Prefixes[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a.String() < b.String()
	})
	ps := e.Prefixes[:0]
	for i := range e.Prefixes {
		if len(ps) > 0 && ps[len(ps)-1].Equal(e.Prefixes[i]) {
			continue
		}
		ps = append(ps, e.Prefixes[i])
	}
	if len(ps) > MaxPrefixes {
		ps = ps[:MaxPrefixes]
	}
	e.Prefixes = ps
}

// Store is an open corpus directory: the in-memory entry map plus the
// directory it mirrors. Safe for concurrent use; every mutation is written
// through to disk before it returns.
type Store struct {
	dir     string
	mu      sync.Mutex
	entries map[string]*Entry
}

// Open opens (creating if necessary) the corpus directory at dir, checks
// the format version and loads every entry. A corrupt entry file or a
// version mismatch is a hard error naming the offending file — a corpus
// that cannot be trusted must not be silently half-used.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	vpath := filepath.Join(dir, "VERSION")
	want := Version + "\n"
	if data, err := os.ReadFile(vpath); err == nil {
		if string(data) != want {
			return nil, fmt.Errorf("corpus: %s holds format %q, this binary speaks %q",
				vpath, strings.TrimSpace(string(data)), Version)
		}
	} else if os.IsNotExist(err) {
		if err := fsatomic.WriteFile(vpath, []byte(want), 0o644); err != nil {
			return nil, fmt.Errorf("corpus: writing %s: %w", vpath, err)
		}
	} else {
		return nil, fmt.Errorf("corpus: %w", err)
	}

	s := &Store{dir: dir, entries: make(map[string]*Entry)}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, fmt.Errorf("corpus: entry %s is corrupt: %w", f, err)
		}
		stem := strings.TrimSuffix(filepath.Base(f), ".json")
		if e.Hash != stem {
			return nil, fmt.Errorf("corpus: entry %s is corrupt: declares hash %q", f, e.Hash)
		}
		for _, w := range e.Witnesses {
			for i, t := range w.Schedule {
				if t < 0 {
					return nil, fmt.Errorf("corpus: entry %s is corrupt: witness step %d names invalid thread %d", f, i, t)
				}
			}
		}
		s.entries[e.Hash] = &e
	}
	return s, nil
}

// Dir returns the directory the store mirrors.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Hashes returns the stored program hashes, sorted.
func (s *Store) Hashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for h := range s.entries {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Get returns a deep copy of the entry for hash, if present.
func (s *Store) Get(hash string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[hash]
	if !ok {
		return Entry{}, false
	}
	return e.clone(), true
}

// Put canonicalises e and writes it through to disk, replacing any
// existing entry for the same hash. An entry canonicalised to empty is
// deleted instead — a hash with nothing to replay needs no file.
func (s *Store) Put(e Entry) error {
	if e.Hash == "" {
		return fmt.Errorf("corpus: Put with empty hash")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.canonicalise()
	if e.empty() {
		return s.deleteLocked(e.Hash)
	}
	stored := e.clone()
	if err := s.saveLocked(&stored); err != nil {
		return err
	}
	s.entries[e.Hash] = &stored
	return nil
}

// AddWitness merges one witness into hash's entry (creating it if needed)
// and persists the result. benchName refreshes the informational name.
func (s *Store) AddWitness(hash, benchName string, w Witness) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(hash, benchName)
	e.Witnesses = append(e.Witnesses, Witness{
		Schedule:  w.Schedule.Clone(),
		PC:        w.PC,
		DC:        w.DC,
		Kind:      w.Kind,
		Message:   w.Message,
		Technique: w.Technique,
	})
	e.canonicalise()
	return s.saveLocked(e)
}

// AddPrefixes merges frontier prefixes into hash's entry and persists it.
func (s *Store) AddPrefixes(hash, benchName string, prefixes []sched.Schedule) error {
	if len(prefixes) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entryLocked(hash, benchName)
	for _, p := range prefixes {
		if len(p) == 0 {
			continue
		}
		e.Prefixes = append(e.Prefixes, p.Clone())
	}
	e.canonicalise()
	return s.saveLocked(e)
}

// GC deletes every entry whose hash the keep set does not contain and
// returns how many were removed. The caller supplies the live hash set —
// typically the current registry's — so entries orphaned by semantic
// changes are reclaimed.
func (s *Store) GC(keep map[string]bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	hashes := make([]string, 0, len(s.entries))
	for h := range s.entries {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		if keep[h] {
			continue
		}
		if err := s.deleteLocked(h); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// entryLocked returns the live entry for hash, creating it if absent.
func (s *Store) entryLocked(hash, benchName string) *Entry {
	e, ok := s.entries[hash]
	if !ok {
		e = &Entry{Hash: hash}
		s.entries[hash] = e
	}
	if benchName != "" {
		e.Benchmark = benchName
	}
	return e
}

// path returns the entry file for hash.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".json")
}

// saveLocked persists e (or deletes its file when empty). The
// faultinject.CorpusWrite point fires before any byte is written, so a
// simulated crash here leaves the previous entry file byte-identical.
func (s *Store) saveLocked(e *Entry) error {
	if e.empty() {
		return s.deleteLocked(e.Hash)
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	data = append(data, '\n')
	if faultinject.Hit(faultinject.CorpusWrite) {
		return faultinject.ErrInjected
	}
	if err := fsatomic.WriteFile(s.path(e.Hash), data, 0o644); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// deleteLocked removes hash's entry and file.
func (s *Store) deleteLocked(hash string) error {
	delete(s.entries, hash)
	if err := os.Remove(s.path(hash)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}
