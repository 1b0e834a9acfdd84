package explore

// Sleep-set partial-order reduction for the unbounded depth-first search —
// the extension §7 of the paper names as future work ("various
// partial-order reduction techniques that reduce the number of schedules
// explored during systematic testing"). Following the paper's own
// methodology note, POR is kept out of the bounded phases (the
// interaction of POR and schedule bounding "is complex and the topic of
// recent and ongoing work", §5): this explorer accelerates plain DFS.
//
// The classic algorithm [Godefroid '96]: each scheduling point carries a
// sleep set of threads whose exploration there is provably redundant.
// After exploring a branch via thread t, t joins the sleep set for the
// remaining siblings; a child inherits the sleeping threads whose pending
// operations are independent of the branch just taken. Independence comes
// from the substrate's pending-operation footprints
// (vthread.PendingInfo.Independent): operations commute when they touch
// disjoint objects or share objects only read-only.
//
// In the DPOR lineage (Flanagan–Godefroid POPL'05, Abdulla et al. POPL'14)
// this is the degenerate case in which every enabled thread is a backtrack
// point, so there is no sleep-set engine of its own: RunSleepSetDFS drives
// the DPOR walker of dpor.go with its backtrack sets born full and its race
// analysis off (dporEngine.sleepOnly). golden_sleepset.json, generated by
// the dedicated engine this replaced, pins that the two are the same search.

// RunSleepSetDFS performs depth-first search with sleep-set partial-order
// reduction. It explores a subset of RunDFS's terminal schedules covering
// every Mazurkiewicz trace (one representative per equivalence class of
// commuting operations), so it reaches the same failure states with —
// often dramatically — fewer executions. A run whose enabled threads are
// all asleep is chooser-aborted on the spot (Result.AbortedExecutions),
// so redundant runs cost only their shared prefix, not the full schedule.
// With Config.Corpus and Config.ProgramHash set, the run is replay-first
// like Run's techniques, with witnesses labelled "sleepset".
func RunSleepSetDFS(cfg Config) *Result {
	if cfg.Corpus != nil && cfg.ProgramHash != "" {
		return replayFirst(DFS, "sleepset", cfg, runSleepSetCold)
	}
	return runSleepSetCold(cfg)
}

func runSleepSetCold(cfg Config) *Result {
	cfg = cfg.withDefaults()
	return runSequential(cfg, &Result{Technique: DFS}, 0, newSleepSetEngine(cfg), nil)
}
