package main

import (
	"sync"
	"time"
)

// Layers a span can be charged to: the repo's modules as seen from the
// calls the benchmark makes into them, plus the benchmark's own glue.
const (
	layerHarness = "harness"
	layerRace    = "race"
	layerExplore = "explore"
	layerMaple   = "mapleidiom"
	layerCorpus  = "corpus"
	layerReport  = "report"
	layerDist    = "dist"
)

var traceLayers = []string{layerRace, layerExplore, layerMaple, layerCorpus, layerReport, layerDist, layerHarness}

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Times are nanoseconds since the tracer
// started; Parent 0 marks a root.
type span struct {
	ID        int              `json:"id"`
	Parent    int              `json:"parent"`
	Layer     string           `json:"layer"`
	Name      string           `json:"name"`
	Start     int64            `json:"start_ns"`
	End       int64            `json:"end_ns"`
	Program   string           `json:"program,omitempty"`
	Technique string           `json:"technique,omitempty"`
	Counts    map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same driving code serves the untraced rounds.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name, program, technique string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: now, End: now, Program: program, Technique: technique})
	return id
}

// end closes span id and attaches the counts measured at that boundary.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// layerSelfSeconds sums span self times per layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e9
	}
	return out
}
