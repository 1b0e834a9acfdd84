package study

// Row-granularity crash safety for the study pipeline. The unit of
// checkpointing is one completed benchmark row: every phase of a row is
// deterministic given the study seed, so a row either finished cleanly —
// and can be carried verbatim into a resumed run — or it was cut short by
// an interrupt or deadline and is discarded and re-run from scratch. A
// resumed study therefore produces exactly the rows an uninterrupted run
// would have, which is what keeps the final CSV artifacts byte-comparable
// across a kill-and-resume cycle. (Finer-grained, frontier-level resume
// lives one layer down, in package explore; the study trades that
// precision for a checkpoint that is trivially correct across all six
// phases of a row, including the race-detection and Maple phases that
// have no frontier to serialize.)

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/fsatomic"
	"sctbench/internal/mapleidiom"
)

// CheckpointVersion is bumped on incompatible changes to the study
// checkpoint schema.
const CheckpointVersion = 1

// Checkpoint is a study run cut short: the configuration that identifies
// the run and every row that completed cleanly before the cut.
type Checkpoint struct {
	Version  int    `json:"version"`
	Limit    int    `json:"limit"`
	Seed     uint64 `json:"seed"`
	RaceRuns int    `json:"raceRuns"`
	// Techniques are the technique names of the run, in order.
	Techniques []string   `json:"techniques"`
	WithMaple  bool       `json:"withMaple,omitempty"`
	Rows       []RowState `json:"rows"`
}

// RowState is one completed row in serializable form (the Benchmark
// pointer becomes its registry name).
type RowState struct {
	Bench        string                     `json:"bench"`
	Racy         []string                   `json:"racy,omitempty"`
	RaceBugsSeen int                        `json:"raceBugsSeen,omitempty"`
	Results      map[string]*explore.Result `json:"results"`
	Maple        *mapleidiom.Result         `json:"maple,omitempty"`
}

func techNames(ts []explore.Technique) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

// newCheckpoint captures cfg (already defaulted) and the completed rows.
func newCheckpoint(cfg Config, rows []*Row) *Checkpoint {
	ck := &Checkpoint{
		Version:    CheckpointVersion,
		Limit:      cfg.Limit,
		Seed:       cfg.Seed,
		RaceRuns:   cfg.RaceRuns,
		Techniques: techNames(cfg.Techniques),
		WithMaple:  cfg.WithMaple,
	}
	for _, r := range rows {
		rs := RowState{
			Bench:        r.Bench.Name,
			Racy:         r.Racy,
			RaceBugsSeen: r.RaceBugsSeen,
			Results:      make(map[string]*explore.Result, len(r.Results)),
			Maple:        r.Maple,
		}
		for t, res := range r.Results {
			rs.Results[t.String()] = res
		}
		ck.Rows = append(ck.Rows, rs)
	}
	return ck
}

// row reconstructs the in-memory Row for a completed RowState, or nil if
// the benchmark is no longer registered under that name.
func (rs *RowState) row() *Row {
	b := bench.ByName(rs.Bench)
	if b == nil {
		return nil
	}
	row := &Row{
		Bench:        b,
		Racy:         rs.Racy,
		RaceBugsSeen: rs.RaceBugsSeen,
		Results:      make(map[explore.Technique]*explore.Result, len(rs.Results)),
		Maple:        rs.Maple,
	}
	for name, res := range rs.Results {
		t, ok := explore.ParseTechnique(name)
		if !ok {
			return nil
		}
		row.Results[t] = res
	}
	return row
}

// matches reports whether the checkpoint was produced by an equivalent
// study configuration — reusing rows across a different limit, seed or
// technique set would silently mix two different experiments.
func (ck *Checkpoint) matches(cfg Config) error {
	if ck.Limit != cfg.Limit || ck.Seed != cfg.Seed || ck.RaceRuns != cfg.RaceRuns {
		return fmt.Errorf("study checkpoint is for limit=%d seed=%d raceRuns=%d, this run has limit=%d seed=%d raceRuns=%d",
			ck.Limit, ck.Seed, ck.RaceRuns, cfg.Limit, cfg.Seed, cfg.RaceRuns)
	}
	want := techNames(cfg.Techniques)
	if len(want) != len(ck.Techniques) {
		return fmt.Errorf("study checkpoint ran techniques %v, this run wants %v", ck.Techniques, want)
	}
	for i := range want {
		if want[i] != ck.Techniques[i] {
			return fmt.Errorf("study checkpoint ran techniques %v, this run wants %v", ck.Techniques, want)
		}
	}
	if ck.WithMaple != cfg.WithMaple {
		return errors.New("study checkpoint and this run disagree on -maple")
	}
	return nil
}

func (ck *Checkpoint) validate() error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("format version %d, this build reads version %d", ck.Version, CheckpointVersion)
	}
	for _, name := range ck.Techniques {
		if _, ok := explore.ParseTechnique(name); !ok {
			return fmt.Errorf("unknown technique %q", name)
		}
	}
	return nil
}

// Save writes the checkpoint atomically and durably (temp file, fsync,
// rename, parent-directory fsync), mirroring explore.Checkpoint.Save.
func (ck *Checkpoint) Save(path string) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("study checkpoint: encode: %w", err)
	}
	data = append(data, '\n')
	if err := fsatomic.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("study checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a study checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("study checkpoint: %w", err)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("study checkpoint %s: corrupt or truncated: %v", path, err)
	}
	if err := ck.validate(); err != nil {
		return nil, fmt.Errorf("study checkpoint %s: %w", path, err)
	}
	return ck, nil
}
