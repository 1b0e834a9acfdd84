package dist

import (
	"errors"
	"fmt"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/faultinject"
)

// WorkerConfig parameterises one worker process (or goroutine — the chaos
// tests run workers in-process against a real HTTP listener).
type WorkerConfig struct {
	// Addr is the coordinator base URL, e.g. "http://127.0.0.1:4077".
	Addr string
	// Name identifies the worker in coordinator status output.
	Name string
	// Interrupt, when non-nil and closed, makes the worker park its
	// in-flight unit and exit cleanly (SIGTERM drain).
	Interrupt <-chan struct{}
	// Client overrides the default retrying client (tests shorten the
	// backoff; zero value = defaults).
	Client *Client
}

// ErrWorkerKilled reports that an injected DistWorkerCrash fault killed
// the worker mid-unit: no park, no completion — exactly a kill -9. The
// coordinator recovers by lease expiry.
var ErrWorkerKilled = errors.New("dist: worker killed (injected)")

// RunWorker connects to a coordinator and runs the scheduler's one worker
// loop (explore.WorkUnits) over HTTP until the job is done or draining, or
// the worker is interrupted; it returns nil on a clean exit. A worker whose
// build does not have the job's program or checkpoint version refuses the
// job before its first lease.
func RunWorker(wc WorkerConfig) error {
	cl := wc.Client
	if cl == nil {
		cl = &Client{}
	}
	if cl.Base == "" {
		cl.Base = wc.Addr
	}
	var spec JobSpec
	if err := cl.call("/v1/job", struct{}{}, &spec); err != nil {
		return fmt.Errorf("worker %s: fetch job: %w", wc.Name, err)
	}
	b := bench.ByName(spec.Benchmark)
	switch {
	case b == nil:
		return fmt.Errorf("worker %s: unknown benchmark %q", wc.Name, spec.Benchmark)
	case spec.Version != explore.CheckpointVersion:
		return fmt.Errorf("worker %s: the coordinator speaks checkpoint version %d, this worker %d",
			wc.Name, spec.Version, explore.CheckpointVersion)
	case spec.ProgramHash != b.Hash():
		return fmt.Errorf("worker %s: program hash mismatch for %s: coordinator %q, this worker %q (built from another version of the program)",
			wc.Name, spec.Benchmark, spec.ProgramHash, b.Hash())
	}
	t := &httpWorker{cl: cl, wc: wc}
	if spec.DeadlineMillis != 0 {
		t.deadline = time.UnixMilli(spec.DeadlineMillis)
	}
	err := explore.WorkUnits(exploreConfig(b, spec.Racy, spec.NoRace, spec.Limit, spec.Seed), t)
	switch {
	case t.killed:
		return ErrWorkerKilled
	case err != nil:
		return fmt.Errorf("worker %s: %w", wc.Name, err)
	}
	return nil
}

// httpWorker is the HTTP transport of the worker loop: the lease, heartbeat,
// complete and park endpoints of a coordinator.
type httpWorker struct {
	cl       *Client
	wc       WorkerConfig
	deadline time.Time
	hb       time.Duration // heartbeat period of the current lease
	lastHB   time.Time
	killed   bool
}

func (t *httpWorker) interrupted() bool {
	select {
	case <-t.wc.Interrupt:
		return true
	default:
		return false
	}
}

// Take asks for a lease until one is granted, or the job is done or
// draining, or the worker is interrupted.
func (t *httpWorker) Take() (*explore.Lease, error) {
	for !t.interrupted() {
		var rep LeaseReply
		if err := t.cl.call("/v1/lease", LeaseRequest{Worker: t.wc.Name}, &rep); err != nil {
			return nil, fmt.Errorf("lease: %w", err)
		}
		switch rep.Status {
		case StatusUnit:
			t.hb, t.lastHB = time.Duration(rep.HeartbeatMillis)*time.Millisecond, time.Now()
			return &explore.Lease{ID: rep.LeaseID, UnitID: rep.UnitID, Unit: rep.Unit, Budget: rep.Budget}, nil
		case StatusDone, StatusDrain:
			return nil, nil
		case StatusWait:
			select {
			case <-t.wc.Interrupt:
			case <-time.After(time.Duration(rep.RetryMillis) * time.Millisecond):
			}
		default:
			return nil, fmt.Errorf("lease: unexpected status %q", rep.Status)
		}
	}
	return nil, nil
}

// Poll runs before every execution: the injected kill -9, the worker's own
// interrupt and the job deadline (which hold even when the coordinator is
// unreachable), then — once a heartbeat is due — the coordinator's verdict.
func (t *httpWorker) Poll(l *explore.Lease) explore.UnitAction {
	if faultinject.Hit(faultinject.DistWorkerCrash) {
		// Simulated kill -9: vanish without parking or completing. The
		// coordinator's lease expiry re-dispatches the unit.
		t.killed = true
		return explore.UnitAbandon
	}
	if t.interrupted() || (!t.deadline.IsZero() && time.Now().After(t.deadline)) {
		return explore.UnitPark
	}
	if time.Since(t.lastHB) < t.hb {
		return explore.UnitContinue
	}
	t.lastHB = time.Now()
	var rep HeartbeatReply
	switch err := t.cl.call("/v1/heartbeat", HeartbeatRequest{LeaseID: l.ID}, &rep); {
	case err != nil:
		// Coordinator unreachable after retries: the lease will expire
		// anyway; stop wasting work.
		return explore.UnitAbandon
	case rep.Status == StatusDrain:
		return explore.UnitPark
	case rep.Status == StatusCancel || rep.Status == StatusStale:
		return explore.UnitAbandon
	}
	return explore.UnitContinue
}

// Finish hands a finished unit's result or a parked frontier back; an
// abandoned unit is left to the coordinator (its lease is gone or expires).
// An undeliverable completion (coordinator crashed) loses no work: a resumed
// coordinator re-dispatches the unit and determinism reproduces it.
func (t *httpWorker) Finish(l *explore.Lease, run *explore.UnitRun) error {
	switch {
	case t.killed:
		return ErrWorkerKilled
	case run.Done != nil:
		return t.cl.call("/v1/complete", CompleteRequest{
			LeaseID: l.ID, UnitID: l.UnitID, Result: run.Done, LimitHit: run.LimitHit,
		}, &CompleteReply{})
	case run.Parked != nil:
		return t.cl.call("/v1/park", ParkRequest{LeaseID: l.ID, UnitID: l.UnitID, Unit: run.Parked}, &ParkReply{})
	}
	return nil
}
