package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// loadResults reads the untraced results under path: a result file (one or
// several result objects) or a directory of them.
func loadResults(path string) ([]*runOutput, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*runOutput
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(fh)
		for {
			r := &runOutput{}
			if err := dec.Decode(r); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if !r.Trace {
				out = append(out, r)
			}
		}
		fh.Close()
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result", path)
	}
	return out, nil
}

// verdict classifies one end-to-end metric of one workload between two
// result sets. before and after are the metric's value in each run.
func verdict(m metricDef, before, after []float64) (rel float64, v string) {
	ma, mb := median(before), median(after)
	if ma == 0 {
		return 0, "unresolved"
	}
	// rel is how much worse the change's median reads, as a share of the
	// parent's; worse(x, y) says run value y reads worse than x.
	rel = (mb - ma) / ma
	worse := func(x, y float64) bool { return y > x }
	if m.Higher {
		rel = -rel
		worse = func(x, y float64) bool { return y < x }
	}
	every := func(pred func(x, y float64) bool) bool {
		for _, x := range before {
			for _, y := range after {
				if !pred(x, y) {
					return false
				}
			}
		}
		return true
	}
	noisy := spread(before) > m.Bound || spread(after) > m.Bound
	switch {
	case noisy && every(func(x, y float64) bool { return !worse(x, y) }):
		return rel, "within"
	case noisy && !(rel > m.Bound && every(worse)):
		return rel, "unresolved"
	case rel > m.Bound:
		return rel, "REGRESSED"
	}
	return rel, "within"
}

// compareMain prints, per workload and end-to-end metric, the change of
// the median against the metric's bound. It returns 1 when a metric
// regressed or an exact count drifted, else 0.
func compareMain(beforePath, afterPath string) int {
	before, err := loadResults(beforePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
		return 2
	}
	after, err := loadResults(afterPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
		return 2
	}
	group := func(rs []*runOutput) map[string][]*runOutput {
		g := map[string][]*runOutput{}
		for _, r := range rs {
			g[r.Workload] = append(g[r.Workload], r)
		}
		return g
	}
	ga, gb := group(before), group(after)
	var names []string
	for n := range ga {
		if _, ok := gb[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark -compare: the two sets share no workload")
		return 2
	}

	bad := 0
	for _, wl := range names {
		ra, rb := ga[wl], gb[wl]
		fmt.Printf("%s  (%d run(s) before, %d after)\n", wl, len(ra), len(rb))
		native := map[string]bool{}
		for _, n := range ra[0].Native {
			native[n] = true
		}
		for _, m := range endToEnd {
			if !native[m.Name] {
				continue // mirrors wall_s or execs_per_s, reported on their own rows
			}
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			rel, v := verdict(m, va, vb)
			if v == "REGRESSED" {
				bad++
			}
			fmt.Printf("  %-18s %12.6g -> %12.6g %-5s  worse by %+6.2f%% of bound %4.1f%%  spread %4.1f%% / %4.1f%%  %s\n",
				m.Name, median(va), median(vb), m.Unit, 100*rel, 100*m.Bound, 100*spread(va), 100*spread(vb), v)
		}
		// Exact counts must repeat between runs on the same inputs.
		for _, a := range ra {
			for _, b := range rb {
				if a.Seed != b.Seed || !reflect.DeepEqual(a.Sizes, b.Sizes) {
					continue
				}
				if diff := sameCounts(fmt.Sprintf("seed %d", a.Seed), a.Counts, b.Counts); len(diff) > 0 {
					bad++
					for _, d := range diff {
						fmt.Println("  COUNTS DIFFER:", d)
					}
				}
			}
		}
		for _, r := range append(append([]*runOutput(nil), ra...), rb...) {
			if r.OpsFailed > 0 {
				bad++
				fmt.Printf("  FAILED OPS: seed %d: %d of %d\n", r.Seed, r.OpsFailed, r.OpsAttempted)
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func metricValues(rs []*runOutput, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}
