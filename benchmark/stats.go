package main

import (
	"math"
	"sort"
)

// median returns the middle value of vals (mean of the two middle values
// for an even count), 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first, second and third quartile of vals by the
// rule of Python's statistics.quantiles(vals, n=4) (the "exclusive"
// method), so a spread computed here equals the one the acceptance driver
// computes from the same runs. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of vals as a share of their median:
// the run-to-run noise figure every bound in BENCHMARK.json is held
// against. Fewer than two values have no spread.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(vals)
	m := median(vals)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// tailPercentile returns the highest of the conventional tail percentiles
// (90, 95, 99, 99.9) that still has at least ten of the n samples beyond
// it, or 0 when not even the 90th does (n < 100): a percentile with fewer
// samples beyond it is one or two outliers, not a tail.
func tailPercentile(n int) float64 {
	best := 0
	for _, permille := range []int{900, 950, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = permille
		}
	}
	return float64(best) / 10
}

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(s) {
		hi = len(s) - 1
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (children may overlap each
// other, as two concurrent workers do, and are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok || s.ID == s.Parent {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end int64
		end = s.Start
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}
