package dist

// The chaos harness: every fault the protocol claims to survive is
// injected here — worker kills mid-unit, dropped/duplicated messages,
// lease expiry with stale-park fencing, coordinator crash mid-merge with
// resume — and every surviving run must be bit-identical to the sequential
// in-process exploration (DFS/IPB/IDB) or verdict-identical (DPOR).

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sctbench/internal/bench"
	"sctbench/internal/explore"
	"sctbench/internal/faultinject"
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
		LeaseTTL: 200 * time.Millisecond, Shards: 6,
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
		t.Run(fmt.Sprintf("%s/%s/limit=%d", tc.bench, tc.tech, tc.limit), func(t *testing.T) {
			base := explore.Run(tc.tech, baseCfg(t, tc.bench, tc.limit))
			if !base.LimitHit {
				t.Fatalf("baseline was not truncated (%d schedules); lower the limit", base.Schedules)
			}
			c, err := NewCoordinator(testJob(t, tc.bench, tc.tech, tc.limit))
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
			requireSame(t, "truncated", maskWork(base), maskWork(got))
		})
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
	c.writeCheckpoint() // the handler's write, after the commit
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

// waitUnitsDone blocks until the coordinator has recorded n completed units
// (or the job has ended).
func waitUnitsDone(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		done, over := 0, c.phase == phaseDone
		for _, u := range c.units {
			if u.done {
				done++
			}
		}
		c.mu.Unlock()
		if done >= n || over {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("coordinator never saw %d completed units", n)
}
