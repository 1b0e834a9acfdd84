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

// TestPositionOracleRegistry is the same sweep with the position oracle
// (position_oracle_test.go) installed instead: at every thread-choice point of
// all 64 programs, under the three choosers, on both engines, the start of the
// canonical order, LastEnabled and the choice's position the World read off
// its members' positions equal what the searches over the set say.
func TestPositionOracleRegistry(t *testing.T) {
	for _, b := range bench.All() {
		maxSteps := 20000
		if b.MaxSteps != 0 {
			maxSteps = min(maxSteps, b.MaxSteps)
		}
		for _, dbg := range []vthread.Debug{{}, {NoFlatEngine: true}} {
			ex := vthread.NewExecutor(vthread.Options{MaxSteps: maxSteps, BoundsCheck: b.BoundsCheck, Debug: dbg})
			reports := 0
			checked := vthread.InstallPositionOracle(ex, func(msg string) {
				if reports++; reports <= 3 {
					t.Errorf("%s %+v: %s", b.Name, dbg, msg)
				}
			})
			for _, mk := range vthread.OracleChoosers() {
				ex.RunWith(mk(), nil, b.New())
			}
			ex.Close()
			if checked() == 0 {
				t.Errorf("%s %+v: no thread-choice point was checked", b.Name, dbg)
			}
		}
	}
}
