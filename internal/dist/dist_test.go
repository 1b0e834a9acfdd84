package dist

// The chaos harness: every fault the protocol claims to survive is
// injected here — worker kills mid-unit, dropped/duplicated messages,
// lease expiry with stale-park fencing, coordinator crash mid-merge with
// resume — and every surviving run must be bit-identical to the sequential
// in-process exploration (DFS/IPB/IDB) or verdict-identical (DPOR).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/faultinject"
	"sctbench/internal/vthread"
)

const distLimit = 20000

// baseCfg is the sequential baseline configuration: everything visible
// (the jobs run NoRace for the same promotion-free environment).
func baseCfg(t *testing.T, name string, limit int) explore.Config {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	return explore.Config{
		Program: b.New(), BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps,
		Limit: limit, Seed: 7,
	}
}

// testJob builds a JobConfig with chaos-friendly knobs: short leases so
// expiry-based failover happens within test time.
func testJob(t *testing.T, name string, tech explore.Technique, limit int) JobConfig {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	return JobConfig{
		Bench: b, Technique: tech, Limit: limit, Seed: 7, NoRace: true,
		LeaseTTL: 200 * time.Millisecond,
	}
}

// startCoord serves a coordinator on an ephemeral localhost port.
func startCoord(t *testing.T, c *Coordinator) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c.Serve(l)
	t.Cleanup(c.Close)
}

// fastClient retries aggressively so injected faults resolve quickly.
func fastClient(c *Coordinator) *Client {
	return &Client{Base: "http://" + c.Addr(), Backoff: 2 * time.Millisecond}
}

// runWorkers runs n workers to completion and returns their errors.
func runWorkers(c *Coordinator, n int) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(WorkerConfig{
				Addr: "http://" + c.Addr(), Name: fmt.Sprintf("w%d", i),
				Client: fastClient(c),
			})
		}(i)
	}
	wg.Wait()
	return errs
}

func requireSame(t *testing.T, label string, want, got *explore.Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: result differs from sequential baseline\n want %+v\n  got %+v", label, want, got)
	}
}

// TestDistEquivalence: a fault-free distributed run over two workers is
// bit-identical to the sequential in-process run, for the single-pass and
// the iterative techniques alike.
func TestDistEquivalence(t *testing.T) {
	cases := []struct {
		bench string
		tech  explore.Technique
	}{
		{"CS.account_bad", explore.DFS},
		{"CS.queue_bad", explore.DFS},
		{"CS.circular_buffer_bad", explore.DFS},
		{"CS.account_bad", explore.IPB},
		{"CS.account_bad", explore.IDB},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s", tc.bench, tc.tech), func(t *testing.T) {
			base := explore.Run(tc.tech, baseCfg(t, tc.bench, distLimit))
			if base.LimitHit {
				t.Fatalf("baseline hit the limit; bit-identity needs a completed run")
			}
			c, err := NewCoordinator(testJob(t, tc.bench, tc.tech, distLimit))
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			startCoord(t, c)
			for i, werr := range runWorkers(c, 2) {
				if werr != nil {
					t.Errorf("worker %d: %v", i, werr)
				}
			}
			got, err := c.Wait()
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			requireSame(t, tc.tech.String(), base, got)
		})
	}
}

// maskWork zeroes the work tallies, the only Result fields a run cut by the
// schedule limit does not reproduce: units run on behind the cut until the
// front of the canonical order is known, and that work is reported.
func maskWork(r *explore.Result) *explore.Result {
	m := *r
	m.Executions, m.TotalSteps, m.AbortedExecutions = 0, 0, 0
	return &m
}

// TestDistTruncatedMatchesSequential: under a limit that cuts the tree, a
// distributed run keeps exactly the schedules the sequential run keeps —
// same counts, same buggy schedules, same first bug and witness. A pass
// that ends as soon as any one unit reports its budget, and merges whatever
// had completed by then, does not: CS.token_ring_bad at 100 then finds its
// first bug at schedule 1 (sequential: 11), and CS.reorder_4_bad at 1000
// finds a bug where the sequential run finds none.
func TestDistTruncatedMatchesSequential(t *testing.T) {
	cases := []struct {
		bench string
		tech  explore.Technique
		limit int
	}{
		{"CS.reorder_4_bad", explore.DFS, 1000},
		{"CS.token_ring_bad", explore.DFS, 100},
		{"CS.account_bad", explore.DFS, 300},
		{"CS.circular_buffer_bad", explore.DFS, 100},
		{"CS.token_ring_bad", explore.IPB, 300},
		{"CS.reorder_4_bad", explore.IPB, 300},
		{"CS.reorder_4_bad", explore.IDB, 300},
	}
	for _, tc := range cases {
		run := func(t *testing.T, stall bool) {
			base := explore.Run(tc.tech, baseCfg(t, tc.bench, tc.limit))
			if !base.LimitHit {
				t.Fatalf("baseline was not truncated (%d schedules); lower the limit", base.Schedules)
			}
			c, err := NewCoordinator(testJob(t, tc.bench, tc.tech, tc.limit))
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			startCoord(t, c)
			sw := &stallWatch{}
			client := fastClient(c)
			if stall {
				// The pass's head unit is split when first leased and its
				// head half held back until the units behind it have
				// finished a whole budget (explore's
				// TestParallelTruncatedHeadStalled, on this transport).
				faultinject.Arm(faultinject.PoolStallHead, 1)
				t.Cleanup(faultinject.Reset)
				client.HTTP = &http.Client{Transport: sw}
			}
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = RunWorker(WorkerConfig{Addr: "http://" + c.Addr(), Name: fmt.Sprintf("w%d", i), Client: client})
				}(i)
			}
			wg.Wait()
			for i, werr := range errs {
				if werr != nil {
					t.Errorf("worker %d: %v", i, werr)
				}
			}
			got, err := c.Wait()
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if stall && faultinject.Hit(faultinject.PoolStallHead) {
				t.Fatal("the head unit was never stalled")
			}
			// A DFS tree holds more than a budget behind its head half; the
			// first bound of a sweep may not, and then the half goes once
			// nothing else is left to run.
			if stall && tc.tech == explore.DFS {
				switch behind, ok := sw.atRelease(); {
				case !ok:
					t.Error("the held head half was never leased")
				case behind < tc.limit:
					t.Errorf("the head half was released with %d schedules completed behind it, short of the budget %d", behind, tc.limit)
				}
			}
			requireSame(t, "truncated", maskWork(base), maskWork(got))
		}
		name := fmt.Sprintf("%s/%s/limit=%d", tc.bench, tc.tech, tc.limit)
		t.Run(name, func(t *testing.T) { run(t, false) })
		t.Run(name+"/stalled", func(t *testing.T) { run(t, true) })
	}
}

// TestDistDPORVerdict: distributed DPOR keeps the pool's verdict-level
// contract — bug and completeness survive sharding across workers.
func TestDistDPORVerdict(t *testing.T) {
	base := explore.Run(explore.DPOR, baseCfg(t, "CS.account_bad", 500))
	c, err := NewCoordinator(testJob(t, "CS.account_bad", explore.DPOR, 500))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	startCoord(t, c)
	for i, werr := range runWorkers(c, 2) {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	got, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if base.BugFound != got.BugFound || base.Complete != got.Complete {
		t.Errorf("verdict = (bug %v, complete %v), want (%v, %v)",
			got.BugFound, got.Complete, base.BugFound, base.Complete)
	}
}

// TestDistWorkerFailover: an injected kill -9 takes one worker down
// mid-unit; the lease expires, the survivor re-runs the unit from its
// original frontier, and the merged result is still bit-identical.
func TestDistWorkerFailover(t *testing.T) {
	base := explore.RunDFS(baseCfg(t, "CS.account_bad", distLimit))
	if !base.Complete {
		t.Fatalf("baseline did not complete")
	}
	c, err := NewCoordinator(testJob(t, "CS.account_bad", explore.DFS, distLimit))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	startCoord(t, c)
	faultinject.Arm(faultinject.DistWorkerCrash, 10)
	t.Cleanup(faultinject.Reset)
	killed := 0
	for i, werr := range runWorkers(c, 2) {
		switch {
		case errors.Is(werr, ErrWorkerKilled):
			killed++
		case werr != nil:
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if killed != 1 {
		t.Fatalf("killed workers = %d, want exactly 1 (the armed crash)", killed)
	}
	got, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireSame(t, "failover", base, got)
}

// TestDistRPCFaults: lost requests, lost replies (the server-side effect
// happened — the retry must be absorbed idempotently) and duplicated
// deliveries do not perturb the result.
func TestDistRPCFaults(t *testing.T) {
	base := explore.RunDFS(baseCfg(t, "CS.account_bad", distLimit))
	if !base.Complete {
		t.Fatalf("baseline did not complete")
	}
	faults := []struct {
		name  string
		point faultinject.Point
	}{
		{"drop-request", faultinject.RPCDropRequest},
		{"drop-reply", faultinject.RPCDropReply},
		{"duplicate", faultinject.RPCDuplicate},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			c, err := NewCoordinator(testJob(t, "CS.account_bad", explore.DFS, distLimit))
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			startCoord(t, c)
			// The 5th RPC of the job lands mid-protocol (past the job
			// fetches, into lease/complete traffic).
			faultinject.Arm(f.point, 5)
			t.Cleanup(faultinject.Reset)
			for i, werr := range runWorkers(c, 2) {
				if werr != nil {
					t.Errorf("worker %d: %v", i, werr)
				}
			}
			got, err := c.Wait()
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			requireSame(t, f.name, base, got)
		})
	}
}

// TestDistLeaseExpiryFencing drives the protocol by hand through the
// nastiest interleaving: a worker goes silent holding a lease, the unit is
// re-dispatched, and then the silent worker comes back — its park must be
// rejected (a stale park could regress the unit's frontier) while its
// completed result is accepted idempotently (first wins) and the
// re-dispatched worker is cancelled at its next heartbeat.
func TestDistLeaseExpiryFencing(t *testing.T) {
	base := explore.RunDFS(baseCfg(t, "CS.account_bad", distLimit))
	jc := testJob(t, "CS.account_bad", explore.DFS, distLimit)
	jc.LeaseTTL = 100 * time.Millisecond
	c, err := NewCoordinator(jc)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	startCoord(t, c)
	cl := fastClient(c)

	// The hung worker takes a lease and goes silent.
	var hung LeaseReply
	for {
		if err := cl.call("/v1/lease", LeaseRequest{Worker: "hung"}, &hung); err != nil {
			t.Fatalf("lease: %v", err)
		}
		if hung.Status == StatusUnit {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Its lease expires and the unit is re-dispatched to a second worker.
	var redisp LeaseReply
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("unit %d was never re-dispatched", hung.UnitID)
		}
		if err := cl.call("/v1/lease", LeaseRequest{Worker: "second"}, &redisp); err != nil {
			t.Fatalf("lease: %v", err)
		}
		if redisp.Status == StatusUnit && redisp.UnitID == hung.UnitID {
			break
		}
		if redisp.Status == StatusUnit {
			// Not the unit we're watching; hand it straight back via a
			// park of its own dispatched state (a no-op park).
			var pr ParkReply
			if err := cl.call("/v1/park", ParkRequest{
				LeaseID: redisp.LeaseID, UnitID: redisp.UnitID, Unit: redisp.Unit,
			}, &pr); err != nil {
				t.Fatalf("park: %v", err)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The expired worker's heartbeat reports the lease gone.
	var hb HeartbeatReply
	if err := cl.call("/v1/heartbeat", HeartbeatRequest{LeaseID: hung.LeaseID}, &hb); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if hb.Status != StatusStale {
		t.Errorf("expired heartbeat = %q, want %q", hb.Status, StatusStale)
	}

	// A park under the expired lease must be fenced off.
	var pr ParkReply
	if err := cl.call("/v1/park", ParkRequest{
		LeaseID: hung.LeaseID, UnitID: hung.UnitID, Unit: hung.Unit,
	}, &pr); err != nil {
		t.Fatalf("park: %v", err)
	}
	if pr.Status != StatusStale {
		t.Errorf("stale park = %q, want %q", pr.Status, StatusStale)
	}

	// But its finished result is accepted — first completion wins.
	ur, err := explore.RunUnit(baseCfg(t, "CS.account_bad", distLimit), hung.Unit, hung.Budget, nil)
	if err != nil || ur.Done == nil {
		t.Fatalf("RunUnit: %v (%+v)", err, ur)
	}
	var cr CompleteReply
	if err := cl.call("/v1/complete", CompleteRequest{
		LeaseID: hung.LeaseID, UnitID: hung.UnitID, Result: ur.Done,
	}, &cr); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if cr.Status != StatusOK {
		t.Errorf("expired-lease completion = %q, want %q", cr.Status, StatusOK)
	}

	// The re-dispatched worker is told to stop wasting its time...
	if err := cl.call("/v1/heartbeat", HeartbeatRequest{LeaseID: redisp.LeaseID}, &hb); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if hb.Status != StatusCancel {
		t.Errorf("re-dispatch heartbeat = %q, want %q", hb.Status, StatusCancel)
	}
	// ...and its duplicate completion is discarded idempotently.
	if err := cl.call("/v1/complete", CompleteRequest{
		LeaseID: redisp.LeaseID, UnitID: redisp.UnitID, Result: ur.Done,
	}, &cr); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if cr.Status != StatusOK {
		t.Errorf("duplicate completion = %q, want %q", cr.Status, StatusOK)
	}

	// Real workers finish the rest; nothing was corrupted.
	for i, werr := range runWorkers(c, 2) {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	got, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireSame(t, "fencing", base, got)
}

// TestDistCoordCrashResume: the coordinator dies mid-merge (after
// recording a completion, before acknowledging it). A fresh coordinator
// rebuilt from the durable checkpoint finishes the job bit-identically.
func TestDistCoordCrashResume(t *testing.T) {
	base := explore.RunDFS(baseCfg(t, "CS.account_bad", distLimit))
	if !base.Complete {
		t.Fatalf("baseline did not complete")
	}
	ckPath := filepath.Join(t.TempDir(), "job.ckpt")
	jc := testJob(t, "CS.account_bad", explore.DFS, distLimit)
	jc.CheckpointPath = ckPath
	c, err := NewCoordinator(jc)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	startCoord(t, c)
	faultinject.Arm(faultinject.DistCoordCrash, 2)
	t.Cleanup(faultinject.Reset)
	for _, werr := range runWorkers(c, 2) {
		if werr == nil {
			t.Errorf("a worker exited cleanly through a coordinator crash")
		}
	}
	if _, err := c.Wait(); !errors.Is(err, ErrCoordinatorCrashed) {
		t.Fatalf("Wait error = %v, want ErrCoordinatorCrashed", err)
	}
	c.Close()

	ck, err := explore.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	c2, err := ResumeCoordinator(ck, testJob(t, "CS.account_bad", explore.DFS, distLimit))
	if err != nil {
		t.Fatalf("ResumeCoordinator: %v", err)
	}
	startCoord(t, c2)
	for i, werr := range runWorkers(c2, 2) {
		if werr != nil {
			t.Errorf("resumed worker %d: %v", i, werr)
		}
	}
	got, err := c2.Wait()
	if err != nil {
		t.Fatalf("resumed Wait: %v", err)
	}
	requireSame(t, "coord-crash-resume", base, got)
}

// TestCrashedCoordinatorAnswersOnlyErrors: between the simulated crash and
// the server's Close landing (it runs on a goroutine of its own) the listener
// still accepts. Whatever arrives then must get an error, never a protocol
// reply: "done" or "stale" would let a worker exit cleanly through a kill -9.
func TestCrashedCoordinatorAnswersOnlyErrors(t *testing.T) {
	c, err := NewCoordinator(testJob(t, "CS.account_bad", explore.DFS, distLimit))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.mu.Lock()
	c.crashLocked()
	c.mu.Unlock()
	for path, handler := range map[string]http.HandlerFunc{
		"/v1/job":       c.handleJob,
		"/v1/lease":     c.handleLease,
		"/v1/heartbeat": c.handleHeartbeat,
		"/v1/complete":  c.handleComplete,
		"/v1/park":      c.handlePark,
		"/v1/status":    c.handleStatus,
	} {
		// A body every handler accepts, so that the answer is the crashed
		// coordinator's and not a bad-request one.
		body := `{"worker":"w","leaseId":1,"unitId":1,"result":{},"unit":{}}`
		rec := httptest.NewRecorder()
		handler(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code < 500 {
			t.Errorf("%s answered %d %q after the crash, want a 5xx", path, rec.Code, rec.Body.String())
		}
	}
}

// TestDistDrainResumeInProcess: SIGTERM-style drain parks the in-flight
// frontiers and writes a job checkpoint that the *in-process* resume path
// (sctrun -resume) finishes bit-identically — the cross-driver half of the
// checkpoint contract, for a job that completes and for one the schedule
// limit cuts (where the resumed pool must derive its budget exactly as the
// coordinator would have: Limit minus what earlier bounds committed).
func TestDistDrainResumeInProcess(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bench string
		limit int
		// drainAfter is how many unit completions the coordinator sees before
		// the interrupt; 0 = a short sleep instead (the job may win the race).
		drainAfter int
	}{
		{"complete", "CS.account_bad", distLimit, 0},
		{"truncated", "CS.account_bad", 300, 1},
		{"truncated-early", "CS.token_ring_bad", 100, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := explore.RunDFS(baseCfg(t, tc.bench, tc.limit))
			truncated := tc.limit != distLimit
			if base.LimitHit != truncated {
				t.Fatalf("baseline LimitHit = %v, want %v", base.LimitHit, truncated)
			}
			same := func(label string, got *explore.Result) {
				t.Helper()
				if truncated {
					requireSame(t, label, maskWork(base), maskWork(got))
				} else {
					requireSame(t, label, base, got)
				}
			}
			ckPath := filepath.Join(t.TempDir(), "job.ckpt")
			interrupt := make(chan struct{})
			jc := testJob(t, tc.bench, explore.DFS, tc.limit)
			jc.CheckpointPath = ckPath
			jc.Interrupt = interrupt
			jc.LeaseTTL = 90 * time.Millisecond // heartbeat ≈30ms: parks land fast
			c, err := NewCoordinator(jc)
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			startCoord(t, c)
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = RunWorker(WorkerConfig{
						Addr: "http://" + c.Addr(), Name: fmt.Sprintf("w%d", i),
						Client: fastClient(c),
					})
				}(i)
			}
			if tc.drainAfter > 0 {
				waitUnitsDone(t, c, tc.drainAfter)
			} else {
				time.Sleep(20 * time.Millisecond)
			}
			close(interrupt)
			wg.Wait()
			for i, werr := range errs {
				if werr != nil {
					t.Errorf("worker %d: %v", i, werr)
				}
			}
			r1, err := c.Wait()
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if r1.Stopped != explore.StopInterrupted {
				// The job beat the interrupt; equivalence is still required,
				// but there is nothing to resume.
				same("drain(too fast)", r1)
				return
			}
			ck, err := explore.LoadCheckpoint(ckPath)
			if err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
			for _, workers := range []int{1, 4} {
				cfg := baseCfg(t, tc.bench, tc.limit)
				cfg.Workers = workers
				got, err := explore.Resume(ck, cfg)
				if err != nil {
					t.Fatalf("Resume: %v", err)
				}
				same(fmt.Sprintf("drain-resume workers=%d", workers), got)
			}
		})
	}
}

// TestDistDrainLateCheckpointWrite is TestDistDrainResumeInProcess/truncated
// with its one racy interleaving forced: handleComplete and handlePark write
// the checkpoint after letting go of the coordinator's lock, so a handler's
// write can land after the drain has committed the pass. The test completes
// one unit by hand, drains, waits for the job to end, and only then makes
// that late write. A checkpoint written then paired the result with the pass
// already folded in (counted 18, say) with the pass's units still listed, and
// the resume reported its first bug 18 schedules late — with the same witness
// and buggy count, and, for a limit-truncated pass, the same total.
func TestDistDrainLateCheckpointWrite(t *testing.T) {
	const name, limit = "CS.account_bad", 300
	base := explore.RunDFS(baseCfg(t, name, limit))
	ckPath := filepath.Join(t.TempDir(), "job.ckpt")
	interrupt := make(chan struct{})
	jc := testJob(t, name, explore.DFS, limit)
	jc.CheckpointPath = ckPath
	jc.Interrupt = interrupt
	c, err := NewCoordinator(jc)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	startCoord(t, c)
	cl := fastClient(c)
	var lease LeaseReply
	for lease.Status != StatusUnit {
		if err := cl.call("/v1/lease", LeaseRequest{Worker: "hand"}, &lease); err != nil {
			t.Fatalf("lease: %v", err)
		}
		if lease.Status != StatusUnit && lease.Status != StatusWait {
			t.Fatalf("lease: status %q", lease.Status)
		}
	}
	run, err := explore.RunUnit(exploreConfig(jc.Bench, nil, true, limit, jc.Seed), lease.Unit, lease.Budget, nil)
	if err != nil || run.Done == nil {
		t.Fatalf("RunUnit: %+v, %v", run, err)
	}
	if run.Done.Schedules == 0 {
		t.Fatal("the leased unit counted no schedule: a late write would shift nothing")
	}
	var done CompleteReply
	req := CompleteRequest{LeaseID: lease.LeaseID, UnitID: lease.UnitID, Result: run.Done, LimitHit: run.LimitHit}
	if err := cl.call("/v1/complete", req, &done); err != nil || done.Status != StatusOK {
		t.Fatalf("complete: %q, %v", done.Status, err)
	}
	close(interrupt) // no lease is out: the pass ends, is checkpointed and committed
	r1, err := c.Wait()
	if err != nil || r1.Stopped != explore.StopInterrupted {
		t.Fatalf("Wait: stopped %v, %v", r1.Stopped, err)
	}
	c.sched.WriteCheckpoint() // the handler's write, after the commit
	ck, err := explore.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	for _, workers := range []int{1, 4} {
		cfg := baseCfg(t, name, limit)
		cfg.Workers = workers
		got, err := explore.Resume(ck, cfg)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		requireSame(t, fmt.Sprintf("late write, resume workers=%d", workers), maskWork(base), maskWork(got))
	}
}

// TestSlowCheckpointWriteHoldsNoLease: the checkpoint write after a
// completion is disk I/O, and the coordinator makes it with its lock let go.
// While one write takes several lease TTLs (CheckpointSlow), another
// worker's heartbeats are answered at once and its lease is never expired.
func TestSlowCheckpointWriteHoldsNoLease(t *testing.T) {
	const name = "CS.account_bad"
	base := explore.RunDFS(baseCfg(t, name, distLimit))
	jc := testJob(t, name, explore.DFS, distLimit)
	jc.CheckpointPath = filepath.Join(t.TempDir(), "job.ckpt")
	c, err := NewCoordinator(jc)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	startCoord(t, c)
	cl := fastClient(c)
	lease := func() (l LeaseReply) {
		for l.Status != StatusUnit {
			if err := cl.call("/v1/lease", LeaseRequest{Worker: "hand"}, &l); err != nil {
				t.Fatalf("lease: %v", err)
			}
		}
		return l
	}
	live, done := lease(), lease()
	run, err := explore.RunUnit(exploreConfig(jc.Bench, nil, true, distLimit, jc.Seed), done.Unit, done.Budget, nil)
	if err != nil || run.Done == nil {
		t.Fatalf("RunUnit: %+v, %v", run, err)
	}
	faultinject.Arm(faultinject.CheckpointSlow, 1)
	t.Cleanup(faultinject.Reset)
	completed := make(chan error, 1)
	go func() {
		req := CompleteRequest{LeaseID: done.LeaseID, UnitID: done.UnitID, Result: run.Done, LimitHit: run.LimitHit}
		completed <- cl.call("/v1/complete", req, &CompleteReply{})
	}()
	waitStatus(t, c, "the completion recorded", func(st StatusReply) bool { return st.UnitsDone >= 1 })
	beats := 0
	for writing := true; writing; {
		select {
		case err := <-completed:
			if err != nil {
				t.Fatalf("complete: %v", err)
			}
			writing = false
		default:
			start := time.Now()
			var hb HeartbeatReply
			rawPost(t, c, "/v1/heartbeat", HeartbeatRequest{LeaseID: live.LeaseID}, &hb)
			if took := time.Since(start); hb.Status != StatusOK || took > jc.LeaseTTL {
				t.Fatalf("heartbeat during the write: %q after %v", hb.Status, took)
			}
			beats++
			time.Sleep(jc.LeaseTTL / 4)
		}
	}
	if want := int(faultinject.SlowWrite / jc.LeaseTTL); beats < want {
		t.Errorf("%d heartbeats answered during a %v write, want at least %d", beats, faultinject.SlowWrite, want)
	}
	// Hand the live unit back as dispatched; real workers finish the job.
	var pr ParkReply
	rawPost(t, c, "/v1/park", ParkRequest{LeaseID: live.LeaseID, UnitID: live.UnitID, Unit: live.Unit}, &pr)
	if pr.Status != StatusOK {
		t.Fatalf("park after the write: %q, the lease did not survive", pr.Status)
	}
	for i, werr := range runWorkers(c, 2) {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	got, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireSame(t, "slow write", base, got)
}

// TestResumeGoldenPoolCheckpoints resumes, on a coordinator and two workers,
// the unit-set files an earlier build's in-process pool and coordinator
// wrote (explore/testdata/golden_pool_checkpoint.json; the in-process half
// is explore's TestResumeGoldenCheckpoints). Each must keep the sequential
// run's counts, first bug and witness.
func TestResumeGoldenPoolCheckpoints(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "explore", "testdata", "golden_pool_checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	var files map[string]json.RawMessage
	if err := json.Unmarshal(blob, &files); err != nil {
		t.Fatal(err)
	}
	for key, raw := range files {
		t.Run(key, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := explore.LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
			tech, _ := explore.ParseTechnique(ck.Technique)
			base := explore.Run(tech, baseCfg(t, "CS.account_bad", ck.Limit))
			c, err := ResumeCoordinator(ck, testJob(t, "CS.account_bad", tech, ck.Limit))
			if err != nil {
				t.Fatalf("ResumeCoordinator: %v", err)
			}
			startCoord(t, c)
			for i, werr := range runWorkers(c, 2) {
				if werr != nil {
					t.Errorf("worker %d: %v", i, werr)
				}
			}
			got, err := c.Wait()
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			requireSame(t, key, maskWork(base), maskWork(got))
		})
	}
}

// waitUnitsDone blocks until the coordinator has recorded n completed units
// (or the job has ended).
func waitUnitsDone(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := c.sched.Status(); st.UnitsDone >= n || st.Phase == "done" {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("coordinator never saw %d completed units", n)
}

// armOnDrain is a worker's HTTP transport that arms a fault point the first
// time it carries a heartbeat reply asking the worker to park: the worker's
// next request — the park itself — is the one the fault hits.
type armOnDrain struct {
	point faultinject.Point
	armed atomic.Bool
}

func (a *armOnDrain) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/heartbeat" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var rep HeartbeatReply
	if json.Unmarshal(body, &rep) == nil && rep.Status == StatusDrain && a.armed.CompareAndSwap(false, true) {
		faultinject.Arm(a.point, 1)
	}
	return resp, nil
}

// stallWatch is the workers' HTTP transport of a single-pass job whose head
// unit PoolStallHead holds back: it adds up the schedules of the completions
// sent before the first lease of a unit with the nil key — the held head
// half — comes back. A completion counts from the moment it is sent, so the
// sum is never short of what the coordinator held when it let the half go.
type stallWatch struct {
	mu       sync.Mutex
	behind   int
	released bool
}

func (s *stallWatch) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/complete" {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		var cr CompleteRequest
		if json.Unmarshal(body, &cr) == nil && cr.Result != nil && cr.Result.PanicMsg == "" {
			s.mu.Lock()
			if !s.released {
				s.behind += cr.Result.Schedules
			}
			s.mu.Unlock()
		}
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/lease" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lr LeaseReply
	if json.Unmarshal(body, &lr) == nil && lr.Status == StatusUnit && lr.Unit != nil && len(lr.Unit.Key) == 0 {
		s.mu.Lock()
		s.released = true
		s.mu.Unlock()
	}
	return resp, nil
}

// atRelease is the schedules completed behind the head half when it was
// leased; false if it never was.
func (s *stallWatch) atRelease() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.behind, s.released
}

// rawPost is one request that goes around the worker client and its fault
// points.
func rawPost(t *testing.T, c *Coordinator, path string, req, reply any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+c.Addr()+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// waitStatus polls the coordinator until ok holds, failing after a while.
func waitStatus(t *testing.T, c *Coordinator, what string, ok func(StatusReply) bool) StatusReply {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var st StatusReply
		rawPost(t, c, "/v1/status", struct{}{}, &st)
		if ok(st) {
			return st
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("the coordinator never reported %s", what)
	return StatusReply{}
}

// TestDistDonationUnderRPCFaults: a worker that finds nothing to lease
// while another runs the pass's last unit gets that unit split — the owner
// parks on its next heartbeat, the coordinator splits the parked engine and
// queues both halves. The park request is then dropped, its reply dropped,
// or the request delivered twice; the split must happen exactly once and the
// job must still equal sequential DFS bit for bit.
func TestDistDonationUnderRPCFaults(t *testing.T) {
	const name = "CS.reorder_4_bad"
	base := explore.RunDFS(baseCfg(t, name, 1<<20))
	if !base.Complete {
		t.Fatalf("baseline did not complete")
	}
	for _, f := range []struct {
		name  string
		point faultinject.Point
	}{
		{"drop-request", faultinject.RPCDropRequest},
		{"drop-reply", faultinject.RPCDropReply},
		{"duplicate", faultinject.RPCDuplicate},
	} {
		t.Run(f.name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			jc := testJob(t, name, explore.DFS, 1<<20)
			jc.LeaseTTL = 60 * time.Millisecond // a heartbeat every 20ms
			c, err := NewCoordinator(jc)
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			startCoord(t, c)
			seeded := waitStatus(t, c, "a seeded pass", func(st StatusReply) bool { return st.Phase == "running" })

			rt := &armOnDrain{point: f.point}
			errs := make([]error, 2)
			var wg sync.WaitGroup
			worker := func(i int, cl *Client) {
				defer wg.Done()
				errs[i] = RunWorker(WorkerConfig{Addr: "http://" + c.Addr(), Name: fmt.Sprintf("w%d", i), Client: cl})
			}
			wg.Add(1)
			go worker(0, &Client{Base: "http://" + c.Addr(), Backoff: 2 * time.Millisecond, HTTP: &http.Client{Transport: rt}})
			// Once the one worker runs the last queued unit, ask for a unit.
			waitStatus(t, c, "the last unit leased", func(st StatusReply) bool {
				return st.Leases == 1 && st.UnitsDone == st.UnitsTotal-1
			})
			var lease LeaseReply
			rawPost(t, c, "/v1/lease", LeaseRequest{Worker: "idle"}, &lease)
			if lease.Status != StatusWait {
				t.Fatalf("the idle lease got %q, want %q", lease.Status, StatusWait)
			}
			waitStatus(t, c, "the split", func(st StatusReply) bool { return st.UnitsTotal > seeded.UnitsTotal })
			wg.Add(1)
			go worker(1, fastClient(c))
			wg.Wait()
			for i, werr := range errs {
				if werr != nil {
					t.Errorf("worker %d: %v", i, werr)
				}
			}
			if !rt.armed.Load() || faultinject.Hit(f.point) {
				t.Fatal("the park never met the fault")
			}
			got, err := c.Wait()
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			requireSame(t, f.name, base, got)
			var st StatusReply
			rawPost(t, c, "/v1/status", struct{}{}, &st)
			if st.UnitsTotal <= seeded.UnitsTotal {
				t.Errorf("UnitsTotal %d, seeded with %d: no split", st.UnitsTotal, seeded.UnitsTotal)
			}
		})
	}
}

// TestDistDrainAfterPeriodicCheckpoint: a coordinator's scheduler paces
// periodic checkpoints by the executions its workers report; owners park at
// their next heartbeat, the file is written, and the units are leased out
// again. The job is drained after such a write, and the drained file
// resumes in-process to the sequential result.
func TestDistDrainAfterPeriodicCheckpoint(t *testing.T) {
	const name, limit, every = "CS.reorder_4_bad", 1 << 20, 4000
	base := explore.RunDFS(baseCfg(t, name, limit))
	ckPath := filepath.Join(t.TempDir(), "job.ckpt")
	interrupt := make(chan struct{})
	jc := testJob(t, name, explore.DFS, limit)
	jc.CheckpointPath, jc.Interrupt, jc.LeaseTTL = ckPath, interrupt, 60*time.Millisecond
	cfg := jobConfig(jc)
	cfg.CheckpointEvery = every
	s, err := explore.NewScheduler(cfg, explore.DFS)
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(jc, s)
	startCoord(t, c)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(WorkerConfig{Addr: "http://" + c.Addr(), Name: fmt.Sprintf("w%d", i), Client: fastClient(c)})
		}(i)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if ck, err := explore.LoadCheckpoint(ckPath); err == nil && ck.Pool.OwnExecs >= 3*every {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint past the periodic marks")
		}
		time.Sleep(time.Millisecond)
	}
	close(interrupt)
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	r1, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if r1.Stopped != explore.StopInterrupted {
		t.Fatalf("the job finished (%v) before the drain", r1.Stopped)
	}
	ck, err := explore.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	for _, workers := range []int{1, 4} {
		cfg := baseCfg(t, name, limit)
		cfg.Workers = workers
		got, err := explore.Resume(ck, cfg)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		requireSame(t, fmt.Sprintf("resume workers=%d", workers), base, got)
	}
}

// TestOversizedBodyRefused: every /v1/* endpoint refuses a body past
// maxBodyBytes with 413, and the coordinator goes on serving its job.
func TestOversizedBodyRefused(t *testing.T) {
	base := explore.RunDFS(baseCfg(t, "CS.account_bad", distLimit))
	c, err := NewCoordinator(testJob(t, "CS.account_bad", explore.DFS, distLimit))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	startCoord(t, c)
	for _, path := range []string{"/v1/job", "/v1/lease", "/v1/heartbeat", "/v1/complete", "/v1/park", "/v1/status"} {
		// A JSON object left open: all whitespace after the brace, so no
		// decoder can reject it before the cap does.
		body := io.MultiReader(strings.NewReader("{"), io.LimitReader(spaces{}, maxBodyBytes))
		resp, err := http.Post("http://"+c.Addr()+path, "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s answered an oversized body with %d, want 413", path, resp.StatusCode)
		}
	}
	for i, werr := range runWorkers(c, 2) {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	got, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireSame(t, "after oversized bodies", base, got)
}

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestWorkerRefusesSkewedJob: a worker whose build disagrees with the
// coordinator about the program or the checkpoint version refuses the job
// before asking for a single lease.
func TestWorkerRefusesSkewedJob(t *testing.T) {
	b := bench.ByName("CS.account_bad")
	for _, tc := range []struct {
		name string
		skew func(*JobSpec)
		want string
	}{
		{"program", func(s *JobSpec) { s.ProgramHash = "0123abcd" }, "program hash mismatch"},
		{"version", func(s *JobSpec) { s.Version = explore.CheckpointVersion + 1 }, "checkpoint version"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var leases atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/job" {
					leases.Add(1)
					http.Error(w, "unexpected", http.StatusTeapot)
					return
				}
				spec := JobSpec{Benchmark: b.Name, Technique: "DFS", Limit: 100,
					ProgramHash: b.Hash(), Version: explore.CheckpointVersion}
				tc.skew(&spec)
				writeJSON(w, spec)
			}))
			defer srv.Close()
			err := RunWorker(WorkerConfig{Addr: srv.URL, Name: "skewed"})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunWorker = %v, want an error about the %s", err, tc.want)
			}
			if n := leases.Load(); n != 0 {
				t.Errorf("the skewed worker made %d requests past /v1/job", n)
			}
		})
	}
}

// TestDistFailureRetention is the wire half of explore's
// TestFailureRetention: a worker's Executor rewrites its failure record at
// every failing run, so the failure a completion carries must be the one its
// unit kept (Clone) when it found its first bug. CS.circular_buffer_bad's
// buggy schedules fail with different messages; the coordinator's result must
// report exactly the failure its witness replays to on the reference engine.
func TestDistFailureRetention(t *testing.T) {
	const name = "CS.circular_buffer_bad"
	b := bench.ByName(name)
	msgs := map[string]bool{}
	ex := vthread.NewExecutor(vthread.Options{BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps})
	for seed := uint64(0); seed < 300; seed++ {
		if out := ex.RunWith(vthread.NewRandom(seed), nil, b.New()); out.Buggy() {
			msgs[out.Failure.Clone().Message] = true
		}
	}
	ex.Close()
	if len(msgs) < 2 {
		t.Fatalf("premise broken: buggy runs of %s fail with %d distinct messages", name, len(msgs))
	}

	c, err := NewCoordinator(testJob(t, name, explore.DFS, distLimit))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	startCoord(t, c)
	for i, werr := range runWorkers(c, 2) {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	got, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got.BuggySchedules < 2 || got.Failure == nil {
		t.Fatalf("%d buggy schedules, failure %v: the test needs later failing runs", got.BuggySchedules, got.Failure)
	}
	rep := vthread.NewReplay(got.Witness)
	out := vthread.NewWorld(vthread.Options{Chooser: rep, BoundsCheck: b.BoundsCheck, MaxSteps: b.MaxSteps}).Run(b.New())
	if rep.Failed() || out.Failure == nil || *out.Failure != *got.Failure {
		t.Fatalf("coordinator kept %q, its witness replays to %v (diverged %v)", got.Failure, out.Failure, rep.Failed())
	}
}
