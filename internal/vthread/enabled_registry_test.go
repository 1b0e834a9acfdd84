package vthread_test

import (
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/vthread"
)

// TestEnabledOracleRegistry runs all 64 registry programs with the
// enabled-set oracle installed (enabled_oracle_test.go): under round-robin,
// seeded random and a replayed DFS prefix, on the flat engine and — the same
// compiled programs — on the reference engine. It lives in the external test
// package because the registry imports vthread.
func TestEnabledOracleRegistry(t *testing.T) {
	for _, b := range bench.All() {
		maxSteps := 20000 // round-robin never preempts a spinning thread
		if b.MaxSteps != 0 {
			maxSteps = min(maxSteps, b.MaxSteps)
		}
		for _, dbg := range []vthread.Debug{{}, {NoFlatEngine: true}} {
			ex := vthread.NewExecutor(vthread.Options{MaxSteps: maxSteps, BoundsCheck: b.BoundsCheck, Debug: dbg})
			reports := 0
			vthread.InstallEnabledOracle(ex, func(msg string) {
				if reports++; reports <= 3 {
					t.Errorf("%s %+v: %s", b.Name, dbg, msg)
				}
			})
			points := 0
			for _, mk := range vthread.OracleChoosers() {
				points += len(ex.RunWith(mk(), nil, b.New()).Trace)
			}
			ex.Close()
			if points == 0 {
				t.Errorf("%s %+v: no scheduling point was checked", b.Name, dbg)
			}
		}
	}
}
