package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// returns, which is the rule the acceptance driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	// quartiles 2.75 and 8.25 around a median of 5.5
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {60, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {320, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{40, 10, 30, 20, 50}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := percentile(v, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // child
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: two workers at once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped to 90..100
		{ID: 5, Parent: 2, Start: 15, End: 25},  // grandchild counts against span 2 only
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 30, 5: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Unit: "s", Bound: 0.07}
	higher := metricDef{Name: "execs_per_s", Unit: "1/s", Higher: true, Bound: 0.07}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		name          string
		m             metricDef
		before, after []float64
		want          string
	}{
		{"unchanged", lower, steady, steady, "within"},
		{"slower beyond the bound", lower, steady, []float64{11, 11.1, 10.9, 11, 11.05}, "REGRESSED"},
		{"slower within the bound", lower, steady, []float64{10.5, 10.6, 10.4, 10.5, 10.5}, "within"},
		{"faster", lower, steady, []float64{8, 8.1, 7.9, 8, 8}, "within"},
		{"rate fell beyond the bound", higher, steady, []float64{9, 9.1, 8.9, 9, 9}, "REGRESSED"},
		{"rate rose", higher, steady, []float64{12, 12.1, 11.9, 12, 12}, "within"},
		{"too noisy to tell", lower, []float64{8, 12, 9, 11, 10}, []float64{8.5, 12.5, 9.5, 11.5, 10.5}, "unresolved"},
		{"noisy but every run better", lower, []float64{8, 12, 9, 11, 10}, []float64{5, 7, 6, 6.5, 5.5}, "within"},
		{"noisy but every run worse", lower, []float64{8, 12, 9, 11, 10}, []float64{15, 19, 16, 18, 17}, "REGRESSED"},
	} {
		if _, got := verdict(tc.m, tc.before, tc.after); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
