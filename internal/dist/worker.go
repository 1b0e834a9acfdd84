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

// RunWorker connects to a coordinator, executes leased units until the job
// is done (or draining, or the worker is interrupted), and returns nil on
// a clean exit. Each unit runs on the worker's own Executor; per-execution
// polls heartbeat the lease, honor the drain/cancel verdicts, and enforce
// the job deadline even when the coordinator is unreachable.
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
	if b == nil {
		return fmt.Errorf("worker %s: unknown benchmark %q", wc.Name, spec.Benchmark)
	}
	cfg := exploreConfig(b, spec.Racy, spec.NoRace, spec.Limit, spec.Seed)
	var deadline time.Time
	if spec.DeadlineMillis != 0 {
		deadline = time.UnixMilli(spec.DeadlineMillis)
	}

	for {
		select {
		case <-wc.Interrupt:
			return nil
		default:
		}
		var lease LeaseReply
		if err := cl.call("/v1/lease", LeaseRequest{Worker: wc.Name}, &lease); err != nil {
			return fmt.Errorf("worker %s: lease: %w", wc.Name, err)
		}
		switch lease.Status {
		case StatusDone, StatusDrain:
			return nil
		case StatusWait:
			wait := time.Duration(lease.RetryMillis) * time.Millisecond
			if wait <= 0 {
				wait = 20 * time.Millisecond
			}
			select {
			case <-wc.Interrupt:
				return nil
			case <-time.After(wait):
			}
			continue
		case StatusUnit:
		default:
			return fmt.Errorf("worker %s: lease: unexpected status %q", wc.Name, lease.Status)
		}

		killed, err := runLease(cl, wc, cfg, &lease, deadline)
		if killed {
			return ErrWorkerKilled
		}
		if err != nil {
			return fmt.Errorf("worker %s: %w", wc.Name, err)
		}
	}
}

// runLease executes one leased unit to its outcome: complete, park (which
// also ends the worker's run — parks only happen on drain, interrupt or
// deadline), or abandon (lease lost; back to the lease loop). killed
// reports the injected worker crash.
func runLease(cl *Client, wc WorkerConfig, cfg explore.Config, lease *LeaseReply, deadline time.Time) (killed bool, err error) {
	hb := time.Duration(lease.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = 500 * time.Millisecond
	}
	lastHB := time.Now()
	poll := func() explore.UnitAction {
		if faultinject.Hit(faultinject.DistWorkerCrash) {
			// Simulated kill -9: vanish without parking or completing.
			// The coordinator's lease expiry re-dispatches the unit.
			killed = true
			return explore.UnitAbandon
		}
		select {
		case <-wc.Interrupt:
			return explore.UnitPark
		default:
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return explore.UnitPark
		}
		if time.Since(lastHB) >= hb {
			lastHB = time.Now()
			var rep HeartbeatReply
			if err := cl.call("/v1/heartbeat", HeartbeatRequest{LeaseID: lease.LeaseID}, &rep); err != nil {
				// Coordinator unreachable after retries: the lease will
				// expire anyway; stop wasting work.
				return explore.UnitAbandon
			}
			switch rep.Status {
			case StatusDrain:
				return explore.UnitPark
			case StatusCancel, StatusStale:
				return explore.UnitAbandon
			}
		}
		return explore.UnitContinue
	}

	ur, rerr := explore.RunUnit(cfg, lease.Unit, lease.Budget, poll)
	if killed {
		return true, nil
	}
	if rerr != nil {
		return false, rerr
	}
	switch {
	case ur.Done != nil:
		var rep CompleteReply
		req := CompleteRequest{
			LeaseID: lease.LeaseID, UnitID: lease.UnitID,
			Result: ur.Done, LimitHit: ur.LimitHit,
		}
		if err := cl.call("/v1/complete", req, &rep); err != nil {
			// Undeliverable completion (coordinator crashed): the work is
			// not lost — a resumed coordinator re-dispatches the unit and
			// determinism reproduces it.
			return false, err
		}
	case ur.Parked != nil:
		var rep ParkReply
		req := ParkRequest{LeaseID: lease.LeaseID, UnitID: lease.UnitID, Unit: ur.Parked}
		if err := cl.call("/v1/park", req, &rep); err != nil {
			return false, err
		}
	}
	// A parked unit ends the worker's run via the next loop iteration:
	// the interrupt select or the coordinator's drain reply on lease.
	return false, nil
}
