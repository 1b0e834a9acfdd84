package vthread_test

import (
	"slices"
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/vthread"
)

// TestPrefixCacheDeclinedSet pins the registry programs the prefix-state
// cache declines — the ones Executor.RunFrom runs from the initial state
// every time, because they create objects at run time (selects, timers,
// tickers, contexts, dynamic mutexes) or are closure Programs. The list can
// only shrink: a program joining it has lost the cache, one leaving it (the
// snapshot learned to save what it creates) is to be taken off here.
func TestPrefixCacheDeclinedSet(t *testing.T) {
	want := []string{
		"goidiom.cancel_bad",
		"goidiom.select_starve_bad",
		"gotime.cancel_after_close_bad",
		"gotime.ctx_cancel_race_bad",
		"gotime.deadline_inherits_bad",
		"gotime.ticker_leak_bad",
		"gotime.timeout_vs_result_bad",
		"gotime.timer_stop_race_bad",
		"misc.safestack",
		"radbench.bug4",
	}
	var got []string
	for _, b := range bench.All() {
		if vthread.DeclinesPrefixCache(b.New()) {
			got = append(got, b.Name)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("programs that always run from scratch:\n  got  %v\n  want %v", got, want)
	}
}
