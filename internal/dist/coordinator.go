package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// (the CLI wires SIGINT/SIGTERM here). Both are noticed within a
	// quarter of LeaseTTL.
	Deadline  time.Time
	Interrupt <-chan struct{}
	// LeaseTTL is how long a unit lease survives without a heartbeat
	// before the unit is re-dispatched (default 2s).
	LeaseTTL time.Duration
	// CheckpointPath, when nonempty, is where the job's resumable
	// checkpoint is durably written after every completion, park and drain
	// (explore.Checkpoint format — `sctrun -resume` and ResumeCoordinator
	// both read it).
	CheckpointPath string
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

// maxBodyBytes caps every /v1/* request body; a body past the cap is refused
// with 413 before it is decoded. A completion carries its unit's buggy
// schedules as runs of consecutive offsets (explore.UnitResultState), a few
// bytes a run, so its size follows the runs, the statistics marks and the
// witness, not how many schedules were buggy: even a unit whose every other
// schedule failed — one run of about a dozen bytes each, the worst case —
// stays under the cap for more than two million schedules.
const maxBodyBytes = 16 << 20

// leaseRec is one outstanding lease.
type leaseRec struct {
	unitID int
	expiry time.Time
}

// Coordinator serves one job's unit scheduler (explore.Scheduler) to
// workers over HTTP. It keeps only what a network needs on top: lease IDs
// with a TTL and the reaper that expires them, park fencing, bounded retry
// of panicked units, and the progress endpoint.
type Coordinator struct {
	jc    JobConfig
	spec  JobSpec
	sched *explore.Scheduler

	// mu guards what follows; it is taken before the scheduler's lock.
	mu       sync.Mutex
	crashed  bool
	leases   map[int64]*leaseRec // at most one per unit: the one that may park it
	retries  map[int]int         // unit → panicked completions so far
	nextLse  int64
	workers  map[string]bool
	final    *explore.Result
	finalErr error

	doneCh chan struct{} // closed once the scheduler's Run returns
	srv    *http.Server
	lis    net.Listener
}

// NewCoordinator builds a coordinator for a fresh job.
func NewCoordinator(jc JobConfig) (*Coordinator, error) {
	if jc.Bench == nil {
		return nil, errors.New("dist: JobConfig.Bench is required")
	}
	s, err := explore.NewScheduler(jobConfig(jc), jc.Technique)
	if err != nil {
		return nil, fmt.Errorf("dist: technique %s cannot be distributed", jc.Technique)
	}
	return newCoordinator(jc, s), nil
}

// ResumeCoordinator rebuilds a coordinator from a job checkpoint written
// by a previous coordinator or by the in-process scheduler — both write the
// same PoolState format. The search parameters come from the checkpoint,
// overriding jc, so a resumed job cannot diverge from the original.
func ResumeCoordinator(ck *explore.Checkpoint, jc JobConfig) (*Coordinator, error) {
	if jc.Bench == nil {
		return nil, errors.New("dist: JobConfig.Bench is required")
	}
	jc.Technique, _ = explore.ParseTechnique(ck.Technique) // ResumeScheduler checks it
	jc.Limit, jc.Seed = ck.Limit, ck.Seed
	jc.MaxBound, jc.MaxExecutions = ck.MaxBound, ck.MaxExecutions
	jc.Racy, jc.NoRace = ck.Racy, ck.NoRace
	s, err := explore.ResumeScheduler(ck, jobConfig(jc))
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return newCoordinator(jc, s), nil
}

// jobConfig is the scheduler's configuration of a job.
func jobConfig(jc JobConfig) explore.Config {
	cfg := exploreConfig(jc.Bench, jc.Racy, jc.NoRace, jc.Limit, jc.Seed)
	cfg.MaxBound, cfg.MaxExecutions = jc.MaxBound, jc.MaxExecutions
	cfg.Deadline, cfg.Interrupt, cfg.CheckpointPath = jc.Deadline, jc.Interrupt, jc.CheckpointPath
	return cfg
}

func newCoordinator(jc JobConfig, s *explore.Scheduler) *Coordinator {
	if jc.Limit == 0 {
		jc.Limit = explore.DefaultLimit
	}
	if jc.LeaseTTL <= 0 {
		jc.LeaseTTL = 2 * time.Second
	}
	spec := JobSpec{
		Benchmark: jc.Bench.Name, Technique: jc.Technique.String(),
		Limit: jc.Limit, Seed: jc.Seed, Racy: jc.Racy, NoRace: jc.NoRace,
		ProgramHash: jc.Bench.Hash(), Version: explore.CheckpointVersion,
	}
	if !jc.Deadline.IsZero() {
		spec.DeadlineMillis = jc.Deadline.UnixMilli()
	}
	return &Coordinator{
		jc: jc, spec: spec, sched: s,
		leases: map[int64]*leaseRec{}, retries: map[int]int{},
		workers: map[string]bool{}, doneCh: make(chan struct{}),
	}
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
	go func() {
		res := c.sched.Run()
		c.mu.Lock()
		if !c.crashed {
			c.final = res
		}
		c.mu.Unlock()
		close(c.doneCh)
	}()
	go c.reaper()
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

// Close tears the coordinator down (idempotent). A job still running is
// abandoned as a crash would leave it: its last checkpoint stands.
func (c *Coordinator) Close() {
	c.sched.Halt()
	if c.srv != nil {
		_ = c.srv.Close()
	}
}

// reaper expires leases, putting their units back in the queue as they are
// stored: the worker is dead, hung or partitioned, and the re-run loses
// nothing. It ticks at a quarter of the lease TTL until the job ends, and
// every tick polls the job's interrupt and deadline.
func (c *Coordinator) reaper() {
	tick := time.NewTicker(c.jc.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.doneCh:
			return
		case now := <-tick.C:
			c.sched.PollStop()
			c.mu.Lock()
			for id, l := range c.leases {
				if !now.After(l.expiry) {
					continue
				}
				if unit := c.dropLeaseLocked(id); unit != 0 {
					c.sched.Release(unit)
				}
			}
			c.mu.Unlock()
		}
	}
}

// dropLeaseLocked forgets a lease and returns its unit (0: no such lease).
func (c *Coordinator) dropLeaseLocked(id int64) int {
	l := c.leases[id]
	if l == nil {
		return 0
	}
	delete(c.leases, id)
	return l.unitID
}

// crashLocked simulates the coordinator dying abruptly (DistCoordCrash):
// the server stops answering and Wait reports the crash. State already on
// disk (the checkpoint just written) is all a resumed coordinator gets —
// exactly like a real kill -9.
func (c *Coordinator) crashLocked() {
	c.crashed = true
	c.finalErr = ErrCoordinatorCrashed
	go c.sched.Halt()
	if srv := c.srv; srv != nil {
		go srv.Close()
	}
}

// --------------------------------------------------------------------------
// HTTP handlers.

// afterWrite is an answer sent once the job's checkpoint is written; crash
// (DistCoordCrash) kills the coordinator instead of sending it.
type afterWrite struct {
	rep   any
	crash bool
}

// serve answers one request. It decodes the body — at most maxBodyBytes; an
// empty one is a zero request — into a Req and replies, under the
// coordinator's lock, with what answer returns (an error is a bad request).
// An afterWrite answer is sent once the checkpoint is written, and the lock
// is let go for the write: leases, heartbeats and the reaper do not wait on
// the disk. A crashed coordinator answers nothing but errors: crashLocked
// closes the server on a goroutine of its own, and until that lands the
// listener still accepts; telling a worker the job is done, or its result
// stale, would let it exit cleanly through a kill -9.
func serve[Req any](c *Coordinator, w http.ResponseWriter, r *http.Request, answer func(*Req) any) {
	var req Req
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("request body over %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return
	case err != nil && err != io.EOF:
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep any
	if !c.crashed {
		rep = answer(&req)
	}
	if aw, ok := rep.(afterWrite); ok {
		c.mu.Unlock()
		c.sched.WriteCheckpoint()
		c.mu.Lock()
		if rep = aw.rep; aw.crash {
			// The answer is recorded and checkpointed but never sent.
			c.crashLocked()
		}
	}
	if err, bad := rep.(error); c.crashed {
		http.Error(w, "coordinator crashed", http.StatusInternalServerError)
	} else if bad {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	} else {
		writeJSON(w, rep)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, func(*struct{}) any { return c.spec })
}

// leaseStatus is the wire form of a lease that carries no unit.
var leaseStatus = map[explore.LeaseStatus]string{
	explore.LeaseWait: StatusWait, explore.LeaseDrain: StatusDrain, explore.LeaseDone: StatusDone,
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, func(req *LeaseRequest) any {
		if req.Worker != "" {
			c.workers[req.Worker] = true
		}
		l, st := c.sched.Lease()
		if l == nil {
			return LeaseReply{Status: leaseStatus[st], RetryMillis: 20}
		}
		c.nextLse++
		c.leases[c.nextLse] = &leaseRec{unitID: l.UnitID, expiry: time.Now().Add(c.jc.LeaseTTL)}
		return LeaseReply{
			Status: StatusUnit, LeaseID: c.nextLse, UnitID: l.UnitID, Unit: l.Unit, Budget: l.Budget,
			HeartbeatMillis: max(c.jc.LeaseTTL/3, time.Millisecond).Milliseconds(), RetryMillis: 20,
		}
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, func(req *HeartbeatRequest) any {
		l, ok := c.leases[req.LeaseID]
		if !ok {
			return HeartbeatReply{Status: StatusStale}
		}
		switch c.sched.Poll(l.unitID) {
		case explore.UnitPark: // a drain, a periodic checkpoint or a donation
			return HeartbeatReply{Status: StatusDrain}
		case explore.UnitAbandon:
			// Completed by a re-dispatch race, or its pass is over: stop the
			// wasted work.
			c.dropLeaseLocked(req.LeaseID)
			return HeartbeatReply{Status: StatusCancel}
		}
		l.expiry = time.Now().Add(c.jc.LeaseTTL)
		return HeartbeatReply{Status: StatusOK}
	})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, func(req *CompleteRequest) any {
		if req.Result == nil {
			return errors.New("complete without result")
		}
		if err := req.Result.CheckBuggyRuns(); err != nil {
			return err
		}
		var holder int // the unit, when this lease holds it
		if l, ok := c.leases[req.LeaseID]; ok && l.unitID == req.UnitID {
			holder = c.dropLeaseLocked(req.LeaseID)
		}
		if req.Result.PanicMsg != "" && c.retries[req.UnitID] < maxUnitRetries {
			// The worker panicked inside this unit. Retry it a bounded number
			// of times (the panic may have been the worker's own corruption);
			// a deterministic panic is accepted — forfeited — after the cap.
			c.retries[req.UnitID]++
			if holder != 0 {
				c.sched.Release(holder)
			}
			return CompleteReply{Status: StatusOK}
		}
		// A completion from an expired lease (re-dispatch race) is accepted:
		// first wins, and the re-dispatched worker's next heartbeat is
		// cancelled. One the pass moved on without is dropped: covered ranges
		// are re-derived from the units actually merged.
		if !c.sched.Report(req.UnitID, &explore.UnitRun{Done: req.Result}) {
			return CompleteReply{Status: StatusStale}
		}
		// An injected crash: the worker's retry fails, and a resumed
		// coordinator finds the unit already done.
		return afterWrite{rep: CompleteReply{Status: StatusOK}, crash: faultinject.Hit(faultinject.DistCoordCrash)}
	})
}

func (c *Coordinator) handlePark(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, func(req *ParkRequest) any {
		if req.Unit == nil {
			return errors.New("park without unit")
		}
		if err := req.Unit.Partial.CheckBuggyRuns(); err != nil {
			return err
		}
		// Parks are fenced: only the lease holding the unit may replace its
		// stored frontier. A stale park (expired lease, re-dispatch already
		// out) could otherwise regress the unit to an older position — the
		// re-run would then double-count the range in between.
		if l, ok := c.leases[req.LeaseID]; !ok || l.unitID != req.UnitID {
			return ParkReply{Status: StatusStale}
		}
		c.dropLeaseLocked(req.LeaseID)
		if !c.sched.Report(req.UnitID, &explore.UnitRun{Parked: req.Unit}) {
			return ParkReply{Status: StatusStale}
		}
		return afterWrite{rep: ParkReply{Status: StatusOK}}
	})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	serve(c, w, r, func(*struct{}) any {
		st := c.sched.Status()
		return StatusReply{
			Phase: st.Phase, Bound: st.Bound, UnitsDone: st.UnitsDone, UnitsTotal: st.UnitsTotal,
			Leases: len(c.leases), Schedules: st.Schedules, Workers: len(c.workers),
		}
	})
}
