package main

import (
	"fmt"
	"runtime"
)

// traceRun is the traced half of a --trace 1 run: one more round of the
// workload, driven at the layer boundaries with a span around every call,
// held against the untraced reference round ref, followed by the
// per-layer probes. It fills out.Metrics with every per-layer metric.
func traceRun(rc runConfig, w workload, ref roundResult, c *checker, out *runOutput) error {
	runtime.GC() // as before every untraced round
	tr := newTracer()
	traced, err := w.round(tr)
	if err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	// The traced round must have done the untraced round's work, to the
	// execution: otherwise its spans attribute something else.
	c.op(sameCounts("traced round", ref.counts, traced.counts)...)
	out.Spans = tr.spans

	m := map[string]float64{}
	self := layerSelfSeconds(tr.spans)
	var covered float64
	for _, l := range traceLayers {
		m["trace.self_s."+l] = self[l]
		covered += self[l]
	}
	m["trace.overhead_pct"] = 100 * (traced.wall - ref.wall) / ref.wall
	m["trace.coverage_pct"] = 100 * covered / ref.wall
	out.Samples["untraced_wall_s"] = []float64{ref.wall}
	out.Samples["traced_wall_s"] = []float64{traced.wall}

	pm, skipped, err := runProbes(rc, c)
	if err != nil {
		return err
	}
	for k, v := range pm {
		m[k] = v
	}
	out.Skipped = append(out.Skipped, skipped...)
	for _, d := range perLayer {
		out.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return nil
}
