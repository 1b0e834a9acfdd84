package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/faultinject"
	"sctbench/internal/race"
)

// JobConfig parameterises one distributed exploration job.
type JobConfig struct {
	// Bench is the benchmark under exploration.
	Bench *bench.Benchmark
	// Technique must be DFS, IPB, IDB or DPOR (Rand shards trivially by
	// run index and needs no coordinator; sleepset is sequential-only).
	Technique explore.Technique
	// Limit/Seed/MaxBound/MaxExecutions are the search parameters, with
	// the explore package's defaults applied when zero.
	Limit         int
	Seed          uint64
	MaxBound      int
	MaxExecutions int
	// Racy is the promoted shared-variable set of the race phase; NoRace
	// disables promotion (every access visible). Both are propagated to
	// workers verbatim so all processes see the same scheduling points.
	Racy   []string
	NoRace bool
	// Deadline, when nonzero, drains the job at that wall-clock time with
	// Stopped = StopDeadline. Interrupt, when non-nil, drains when closed
	// (the CLI wires SIGINT/SIGTERM here).
	Deadline  time.Time
	Interrupt <-chan struct{}
	// LeaseTTL is how long a unit lease survives without a heartbeat
	// before the unit is re-dispatched (default 2s).
	LeaseTTL time.Duration
	// Shards is how many units each pass is split into up front (default
	// 8). More shards = finer failover granularity and better balance,
	// at slightly more dispatch overhead.
	Shards int
	// CheckpointPath, when nonempty, is where the coordinator durably
	// writes its resumable job checkpoint after every completion, park
	// and drain (explore.Checkpoint format — `sctrun -resume` and
	// ResumeCoordinator both read it).
	CheckpointPath string
}

func (jc JobConfig) withDefaults() JobConfig {
	if jc.Limit == 0 {
		jc.Limit = explore.DefaultLimit
	}
	if jc.MaxBound == 0 {
		jc.MaxBound = explore.DefaultMaxBound
	}
	if jc.MaxExecutions == 0 {
		jc.MaxExecutions = explore.DefaultMaxExecutions
	}
	if jc.LeaseTTL <= 0 {
		jc.LeaseTTL = 2 * time.Second
	}
	if jc.Shards <= 0 {
		jc.Shards = 8
	}
	return jc
}

// exploreConfig is the program environment of a job, identical in every
// process that takes part in it: the coordinator's own sharding runs (one
// execution per pass) and checkpoints, and each worker's units.
func exploreConfig(b *bench.Benchmark, racy []string, noRace bool, limit int, seed uint64) explore.Config {
	var visible func(string) bool
	if !noRace {
		visible = race.Promoted(racy)
	}
	return explore.Config{
		Program: b.New(), Visible: visible,
		BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps,
		Limit: limit, Seed: seed,
		Meta: explore.CheckpointMeta{Benchmark: b.Name, Racy: racy, NoRace: noRace},
	}
}

// ErrCoordinatorCrashed is returned by Wait when an injected
// DistCoordCrash fault killed the coordinator mid-merge; the job must be
// resumed from its checkpoint by a fresh coordinator.
var ErrCoordinatorCrashed = errors.New("dist: coordinator crashed (injected)")

// maxUnitRetries bounds re-dispatch of a unit whose worker reported a
// panic: a deterministic program panic would bounce forever, so after
// this many attempts the panicked result is accepted and its counts are
// forfeited at merge time (surfacing as Result.WorkerPanics).
const maxUnitRetries = 2

type coordPhase int

const (
	phaseSeeding coordPhase = iota
	phaseRunning
	phaseDraining
	phaseDone
	phaseCrashed
)

func (p coordPhase) String() string {
	switch p {
	case phaseSeeding:
		return "seeding"
	case phaseRunning:
		return "running"
	case phaseDraining:
		return "draining"
	case phaseDone:
		return "done"
	case phaseCrashed:
		return "crashed"
	}
	return "unknown"
}

// unitEntry is one shard of the current pass.
type unitEntry struct {
	id      int
	us      *explore.UnitState
	done    bool
	res     *explore.UnitResultState
	leaseID int64 // 0 = not leased
	retries int   // panicked completions so far
}

// leaseRec is one outstanding lease.
type leaseRec struct {
	unitID int
	expiry time.Time
}

// Coordinator owns one job: it shards each pass into leased units, serves
// them to workers over HTTP, re-dispatches expired leases, merges
// completions canonically and folds passes into the final Result exactly
// as the in-process drivers do.
type Coordinator struct {
	jc   JobConfig
	ecfg explore.Config
	iter bool // IPB/IDB: bound loop; DFS/DPOR: single pass

	mu       sync.Mutex
	cond     *sync.Cond
	phase    coordPhase
	sealed   bool // current pass merged; late submissions are stale
	bound    int
	counted  int             // schedules committed by earlier bounds
	res      *explore.Result // committed (pre-current-pass) result
	units    map[int]*unitEntry
	leases   map[int64]*leaseRec
	nextUnit int
	nextLse  int64
	drainRsn explore.StopReason
	workers  map[string]bool
	ckMu     sync.Mutex // serializes checkpoint writes (one temp file)

	final    *explore.Result
	finalErr error
	doneCh   chan struct{}
	stopCh   chan struct{}
	srv      *http.Server
	lis      net.Listener
}

// NewCoordinator builds a coordinator for a fresh job.
func NewCoordinator(jc JobConfig) (*Coordinator, error) {
	jc = jc.withDefaults()
	if jc.Bench == nil {
		return nil, errors.New("dist: JobConfig.Bench is required")
	}
	switch jc.Technique {
	case explore.DFS, explore.IPB, explore.IDB, explore.DPOR:
	default:
		return nil, fmt.Errorf("dist: technique %s cannot be distributed", jc.Technique)
	}
	c := &Coordinator{
		jc:      jc,
		ecfg:    exploreConfig(jc.Bench, jc.Racy, jc.NoRace, jc.Limit, jc.Seed),
		iter:    jc.Technique == explore.IPB || jc.Technique == explore.IDB,
		phase:   phaseSeeding,
		res:     &explore.Result{Technique: jc.Technique},
		units:   map[int]*unitEntry{},
		leases:  map[int64]*leaseRec{},
		workers: map[string]bool{},
		doneCh:  make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	c.ecfg.MaxBound, c.ecfg.MaxExecutions = jc.MaxBound, jc.MaxExecutions
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// ResumeCoordinator rebuilds a coordinator from a job checkpoint written
// by a previous coordinator (or by the in-process pool — both write the
// same PoolState format). The search parameters come from the checkpoint,
// overriding jc, so a resumed job cannot diverge from the original.
func ResumeCoordinator(ck *explore.Checkpoint, jc JobConfig) (*Coordinator, error) {
	if ck.Pool == nil {
		return nil, errors.New("dist: checkpoint has no pool state (sequential checkpoints resume via sctrun -resume)")
	}
	// A technique that parses but cannot be distributed (Rand) is refused
	// by NewCoordinator below.
	tech, ok := explore.ParseTechnique(ck.Technique)
	if !ok {
		return nil, fmt.Errorf("dist: technique %q cannot be distributed", ck.Technique)
	}
	jc.Technique = tech
	jc.Limit = ck.Limit
	jc.Seed = ck.Seed
	jc.MaxBound = ck.MaxBound
	jc.MaxExecutions = ck.MaxExecutions
	jc.Racy = ck.Racy
	jc.NoRace = ck.NoRace
	c, err := NewCoordinator(jc)
	if err != nil {
		return nil, err
	}
	rr := *ck.Result
	rr.Stopped = explore.StopCompleted
	rr.CheckpointError = ""
	ck.Pool.RebaseWork(&rr)
	c.res = &rr
	c.bound = ck.Bound
	c.counted = ck.Pool.Counted
	for i := range ck.Pool.Units {
		us := ck.Pool.Units[i]
		c.nextUnit++
		c.units[c.nextUnit] = &unitEntry{id: c.nextUnit, us: &us}
	}
	for i := range ck.Pool.Done {
		ds := ck.Pool.Done[i]
		c.nextUnit++
		c.units[c.nextUnit] = &unitEntry{id: c.nextUnit, done: true, res: &ds}
	}
	if len(c.units) > 0 {
		c.phase = phaseRunning
	}
	return c, nil
}

// Serve starts the coordinator on l and returns immediately; Wait blocks
// for the result. The caller owns l's address (use "127.0.0.1:0" and
// Addr for tests).
func (c *Coordinator) Serve(l net.Listener) {
	c.lis = l
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/job", c.handleJob)
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/complete", c.handleComplete)
	mux.HandleFunc("/v1/park", c.handlePark)
	mux.HandleFunc("/v1/status", c.handleStatus)
	c.srv = &http.Server{Handler: mux}
	go func() { _ = c.srv.Serve(l) }()
	go c.run()
	go c.reaper()
	if c.jc.Interrupt != nil {
		go func() {
			select {
			case <-c.jc.Interrupt:
				c.drain(explore.StopInterrupted)
			case <-c.stopCh:
			}
		}()
	}
}

// Addr is the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.lis.Addr().String() }

// Wait blocks until the job finishes (completed, limit, drained) or the
// coordinator crashed. The Result is the job's final result, nil when an
// error ended it.
func (c *Coordinator) Wait() (*explore.Result, error) {
	<-c.doneCh
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.final, c.finalErr
}

// Close tears the coordinator down (idempotent).
func (c *Coordinator) Close() {
	c.mu.Lock()
	select {
	case <-c.stopCh:
	default:
		close(c.stopCh)
	}
	c.mu.Unlock()
	if c.srv != nil {
		_ = c.srv.Close()
	}
}

// drain asks the job to stop gracefully: running workers park at their
// next poll, and the final checkpoint preserves everything.
func (c *Coordinator) drain(reason explore.StopReason) {
	c.mu.Lock()
	if c.phase == phaseSeeding || c.phase == phaseRunning {
		c.phase = phaseDraining
		c.drainRsn = reason
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// reaper expires leases (re-queueing their units) and watches the
// deadline. It ticks at a quarter of the lease TTL.
func (c *Coordinator) reaper() {
	tick := time.NewTicker(c.jc.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case now := <-tick.C:
			if !c.jc.Deadline.IsZero() && now.After(c.jc.Deadline) {
				c.drain(explore.StopDeadline)
			}
			c.mu.Lock()
			changed := false
			for id, l := range c.leases {
				if now.After(l.expiry) {
					// The worker is dead, hung or partitioned: take the
					// lease back. The unit's stored frontier is exactly
					// what was dispatched, so the re-run loses nothing.
					if u := c.units[l.unitID]; u != nil && u.leaseID == id {
						u.leaseID = 0
					}
					delete(c.leases, id)
					changed = true
				}
			}
			if changed {
				c.cond.Broadcast()
			}
			c.mu.Unlock()
		}
	}
}

// crashLocked simulates the coordinator dying abruptly (DistCoordCrash):
// the server stops answering and Wait reports the crash. State already on
// disk (the checkpoint just written) is all a resumed coordinator gets —
// exactly like a real kill -9.
func (c *Coordinator) crashLocked() {
	c.phase = phaseCrashed
	c.finalErr = ErrCoordinatorCrashed
	c.cond.Broadcast()
	srv := c.srv
	go func() {
		if srv != nil {
			_ = srv.Close()
		}
	}()
}

// run is the job's main loop: seed a pass, wait for it to end, merge,
// fold, decide — mirroring runIterativeParallel's per-bound structure.
func (c *Coordinator) run() {
	defer close(c.doneCh)
	for {
		c.mu.Lock()
		needSeed := len(c.units) == 0 && c.phase == phaseSeeding
		bound := c.bound
		c.mu.Unlock()
		if needSeed {
			set, err := explore.ShardTree(c.ecfg, c.jc.Technique, bound, c.jc.Shards)
			if err != nil {
				c.mu.Lock()
				c.phase = phaseDone
				c.finalErr = err
				c.mu.Unlock()
				return
			}
			c.installShards(set)
		}

		c.mu.Lock()
		if c.phase == phaseSeeding {
			c.phase = phaseRunning
		}
		c.sealed = false
		c.cond.Broadcast()
		for !c.passEndLocked() {
			c.cond.Wait()
		}
		if c.phase == phaseCrashed {
			c.mu.Unlock()
			return
		}
		c.sealed = true
		draining := c.phase == phaseDraining
		done, pending := c.collectLocked()
		c.mu.Unlock()

		if draining {
			c.finishDrain(done, pending)
			return
		}
		if c.commit(done, explore.StopCompleted) {
			return
		}
	}
}

// passEndLocked: the current pass is over when every unit completed, when
// the completed units ahead of the earliest outstanding one already hold
// the schedule budget (explore.BudgetReached — the pool's rule; in-flight
// work is cancelled, and the canonical merge cuts exactly), or when a drain
// has no leases left outstanding (each was parked, completed or expired).
func (c *Coordinator) passEndLocked() bool {
	if c.phase == phaseCrashed {
		return true
	}
	if c.phase == phaseDraining {
		return len(c.leases) == 0
	}
	done, pending := c.collectLocked()
	budget, held := c.jc.Limit-c.counted, 0
	for _, d := range done {
		held += d.Schedules
	}
	live := make([][]int, len(pending))
	for i, us := range pending {
		live[i] = us.Key
	}
	return len(live) == 0 || (held >= budget && explore.BudgetReached(done, live, budget))
}

// collectLocked snapshots the pass: completed results and the not-done
// units (whose stored frontiers and partial tallies a drain checkpoints).
func (c *Coordinator) collectLocked() (done []*explore.UnitResultState, pending []*explore.UnitState) {
	for _, u := range c.units {
		if u.done {
			done = append(done, u.res)
		} else {
			pending = append(pending, u.us)
		}
	}
	return done, pending
}

// installShards makes a freshly sharded pass leasable.
func (c *Coordinator) installShards(set *explore.ShardSet) {
	c.mu.Lock()
	for i := range set.Done {
		c.nextUnit++
		c.units[c.nextUnit] = &unitEntry{id: c.nextUnit, done: true, res: &set.Done[i]}
	}
	for i := range set.Units {
		c.nextUnit++
		c.units[c.nextUnit] = &unitEntry{id: c.nextUnit, us: &set.Units[i]}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.writeCheckpoint()
}

// finishDrain checkpoints the drained pass (pre-fold, matching the pool's
// checkpoint contract) and produces the partial result: completed units
// plus the partial tallies of parked ones, folded exactly as the pool's
// stopped path folds them.
func (c *Coordinator) finishDrain(done []*explore.UnitResultState, pending []*explore.UnitState) {
	c.writeCheckpoint()
	for _, us := range pending {
		if us.Partial != nil {
			done = append(done, us.Partial)
		}
	}
	c.commit(done, c.drainRsn)
}

// commit merges a pass's units under its budget and folds them into the
// job's result with the pool's per-pass verdict (explore.PassMerge.Commit):
// the job is over (true), or the next bound is to be seeded (false).
func (c *Coordinator) commit(units []*explore.UnitResultState, stopped explore.StopReason) (final bool) {
	m := explore.MergeUnitStates(units, c.jc.Limit-c.counted)
	c.mu.Lock()
	defer c.mu.Unlock()
	final = m.Commit(c.res, explore.PassEnd{
		Iterative: c.iter, Bound: c.bound, MaxBound: c.jc.MaxBound,
		Counted: c.counted, Limit: c.jc.Limit, Stopped: stopped,
		GuardHit: c.iter && c.res.Executions+m.Executions >= c.jc.MaxExecutions,
	})
	c.counted += m.Schedules
	if final {
		c.phase = phaseDone
		c.final = c.res
		c.cond.Broadcast()
	} else {
		c.units = map[int]*unitEntry{}
		c.leases = map[int64]*leaseRec{}
		c.bound++
		c.phase = phaseSeeding
	}
	return final
}

// writeCheckpoint durably writes the resumable job state: the committed
// (pre-current-pass) Result, plus every not-done unit's frontier and every
// completed unit's result of the current pass — the same pre-fold contract
// as the in-process pool's checkpoints, so `sctrun -resume` can also
// finish a drained distributed job in-process.
//
// Once the job's last pass is folded into c.res (commit, phaseDone) there
// is no such state left to write: c.res and c.counted then include the
// pass whose units c.units still holds, and a file pairing the two counts
// those units twice (a resume reports every offset shifted by the pass's
// schedules). Handlers write after letting go of c.mu, so their write can
// land after finishDrain's commit; it is dropped, and the drain's own
// checkpoint, written before the commit, stays the last one on disk.
func (c *Coordinator) writeCheckpoint() {
	if c.jc.CheckpointPath == "" {
		return
	}
	// Handlers checkpoint concurrently; Save goes through one temp file, and
	// the snapshot must be taken inside the same critical section so the
	// file on disk never goes back in time.
	c.ckMu.Lock()
	defer c.ckMu.Unlock()
	c.mu.Lock()
	if c.phase == phaseDone {
		c.mu.Unlock()
		return
	}
	ck := c.checkpointLocked()
	c.mu.Unlock()
	if err := ck.Save(c.jc.CheckpointPath); err != nil {
		c.mu.Lock()
		c.res.CheckpointError = err.Error()
		c.mu.Unlock()
	}
}

func (c *Coordinator) checkpointLocked() *explore.Checkpoint {
	var units []explore.UnitState
	var done []explore.UnitResultState
	for _, u := range c.units {
		if u.done {
			done = append(done, *u.res)
		} else {
			units = append(units, *u.us)
		}
	}
	// Snapshot the committed Result: the checkpoint is marshaled outside
	// the lock (Save fsyncs — too slow to hold c.mu across), and c.res
	// keeps mutating as passes fold in. FoldInto replaces reference
	// fields rather than mutating their backing arrays, so a shallow
	// copy is a stable marshal source.
	rr := *c.res
	return explore.NewPassCheckpoint(c.ecfg, &rr, c.bound, c.counted, int64(rr.Executions), units, done)
}

// --------------------------------------------------------------------------
// HTTP handlers.

// deadLocked answers a request that reached a crashed coordinator, and
// reports whether it did. crashLocked closes the server on a goroutine of its
// own, and until that lands the listener still accepts: a dead coordinator
// must answer nothing but errors in the meantime — telling a worker the job
// is done, or its result stale, would let it exit cleanly through a kill -9.
// Every handler asks under the lock it does its work under.
func (c *Coordinator) deadLocked(w http.ResponseWriter) bool {
	if c.phase != phaseCrashed {
		return false
	}
	http.Error(w, "coordinator crashed", http.StatusInternalServerError)
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	dead := c.deadLocked(w)
	c.mu.Unlock()
	if dead {
		return
	}
	spec := JobSpec{
		Benchmark: c.jc.Bench.Name,
		Technique: c.jc.Technique.String(),
		Limit:     c.jc.Limit,
		Seed:      c.jc.Seed,
		Racy:      c.jc.Racy,
		NoRace:    c.jc.NoRace,
	}
	if !c.jc.Deadline.IsZero() {
		spec.DeadlineMillis = c.jc.Deadline.UnixMilli()
	}
	writeJSON(w, spec)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	hb := c.jc.LeaseTTL / 3
	if hb <= 0 {
		hb = time.Millisecond
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deadLocked(w) {
		return
	}
	if req.Worker != "" {
		c.workers[req.Worker] = true
	}
	switch c.phase {
	case phaseDone:
		writeJSON(w, LeaseReply{Status: StatusDone})
		return
	case phaseDraining:
		writeJSON(w, LeaseReply{Status: StatusDrain})
		return
	case phaseSeeding:
		writeJSON(w, LeaseReply{Status: StatusWait, RetryMillis: 20})
		return
	}
	if c.sealed {
		writeJSON(w, LeaseReply{Status: StatusWait, RetryMillis: 20})
		return
	}
	// Lex-smallest pending unit first: the frontier advances in
	// approximately the sequential visit order, the same heuristic as the
	// pool's lex-priority stealing.
	var pick *unitEntry
	for _, u := range c.units {
		if u.done || u.leaseID != 0 {
			continue
		}
		if pick == nil || explore.CompareUnitKeys(u.us.Key, pick.us.Key) < 0 {
			pick = u
		}
	}
	if pick == nil {
		writeJSON(w, LeaseReply{Status: StatusWait, RetryMillis: 20})
		return
	}
	c.nextLse++
	id := c.nextLse
	c.leases[id] = &leaseRec{unitID: pick.id, expiry: time.Now().Add(c.jc.LeaseTTL)}
	pick.leaseID = id
	writeJSON(w, LeaseReply{
		Status: StatusUnit, LeaseID: id, UnitID: pick.id, Unit: pick.us,
		Budget:          c.jc.Limit - c.counted,
		HeartbeatMillis: hb.Milliseconds(),
		RetryMillis:     20,
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deadLocked(w) {
		return
	}
	l, ok := c.leases[req.LeaseID]
	if !ok {
		writeJSON(w, HeartbeatReply{Status: StatusStale})
		return
	}
	switch {
	case c.phase == phaseDraining:
		writeJSON(w, HeartbeatReply{Status: StatusDrain})
	case c.phase == phaseDone || c.sealed:
		delete(c.leases, req.LeaseID)
		writeJSON(w, HeartbeatReply{Status: StatusCancel})
	default:
		if u := c.units[l.unitID]; u == nil || u.done {
			// Completed by a re-dispatch race; stop the wasted work.
			delete(c.leases, req.LeaseID)
			writeJSON(w, HeartbeatReply{Status: StatusCancel})
			return
		}
		l.expiry = time.Now().Add(c.jc.LeaseTTL)
		writeJSON(w, HeartbeatReply{Status: StatusOK})
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Result == nil {
		http.Error(w, "complete without result", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	if c.deadLocked(w) {
		c.mu.Unlock()
		return
	}
	if l, ok := c.leases[req.LeaseID]; ok && l.unitID == req.UnitID {
		delete(c.leases, req.LeaseID)
	}
	u, ok := c.units[req.UnitID]
	if !ok || c.sealed || c.phase == phaseDone {
		// The pass moved on without this unit (the budget was already held by
		// the units ahead of it, or the next bound began): the result is
		// dropped. Covered ranges are re-derived from the units actually
		// merged, so dropping is always safe.
		c.mu.Unlock()
		writeJSON(w, CompleteReply{Status: StatusStale})
		return
	}
	if u.done {
		// Duplicate completion (re-dispatch race, duplicated message):
		// determinism makes it identical to the recorded one — ignore.
		c.mu.Unlock()
		writeJSON(w, CompleteReply{Status: StatusOK})
		return
	}
	// A completion from an expired lease (re-dispatch race) is accepted:
	// first wins, and the re-dispatched worker's next heartbeat gets
	// StatusCancel from the u.done check. Only the current lease is
	// detached here; a foreign lease ID stays for the reaper.
	if req.LeaseID == u.leaseID {
		u.leaseID = 0
	}
	if req.Result.PanicMsg != "" && u.retries < maxUnitRetries {
		// The worker panicked inside this unit. Retry it a bounded number
		// of times (the panic may have been the worker's own corruption);
		// a deterministic panic is accepted — forfeited — after the cap.
		u.retries++
		u.leaseID = 0
		c.cond.Broadcast()
		c.mu.Unlock()
		writeJSON(w, CompleteReply{Status: StatusOK})
		return
	}
	// req.LimitHit needs no handling: a unit that stopped at its own budget
	// is a finished unit, and passEndLocked decides from the finished units
	// alone whether the pass may end.
	u.done = true
	u.res = req.Result
	c.cond.Broadcast()
	crash := faultinject.Hit(faultinject.DistCoordCrash)
	c.mu.Unlock()
	c.writeCheckpoint()
	if crash {
		// The result is recorded and checkpointed but never acknowledged:
		// the coordinator dies mid-merge. The worker's retry will fail,
		// and a resumed coordinator finds the unit already done.
		c.mu.Lock()
		c.crashLocked()
		c.mu.Unlock()
		http.Error(w, "coordinator crashed", http.StatusInternalServerError)
		return
	}
	writeJSON(w, CompleteReply{Status: StatusOK})
}

func (c *Coordinator) handlePark(w http.ResponseWriter, r *http.Request) {
	var req ParkRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Unit == nil {
		http.Error(w, "park without unit", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	if c.deadLocked(w) {
		c.mu.Unlock()
		return
	}
	u, ok := c.units[req.UnitID]
	// Parks are fenced: only the current lease may replace the unit's
	// stored frontier. A stale park (expired lease, re-dispatch already
	// out) could otherwise regress the unit to an older position — the
	// re-run would then double-count the range in between.
	if !ok || u.done || u.leaseID != req.LeaseID || c.sealed {
		c.mu.Unlock()
		writeJSON(w, ParkReply{Status: StatusStale})
		return
	}
	u.us = req.Unit
	u.leaseID = 0
	delete(c.leases, req.LeaseID)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.writeCheckpoint()
	writeJSON(w, ParkReply{Status: StatusOK})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deadLocked(w) {
		return
	}
	st := StatusReply{
		Phase:   c.phase.String(),
		Bound:   c.bound,
		Leases:  len(c.leases),
		Workers: len(c.workers),
	}
	sched := c.counted
	for _, u := range c.units {
		st.UnitsTotal++
		if u.done {
			st.UnitsDone++
			sched += u.res.Schedules
		} else if u.us.Partial != nil {
			sched += u.us.Partial.Schedules
		}
	}
	st.Schedules = sched
	writeJSON(w, st)
}
