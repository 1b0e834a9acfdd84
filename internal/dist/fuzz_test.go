package dist

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sctbench/internal/explore"
)

// FuzzCoordinatorBodies posts arbitrary bytes to the lease, heartbeat,
// complete and park endpoints of a live coordinator that has a unit leased
// out, and then lets a worker finish the job. The handlers run on the
// fuzzing goroutine, so a panic is the fuzzer's to see; the coordinator must
// answer every body and still finish its job. Run it with `go test -run xxx
// -fuzz FuzzCoordinatorBodies`.
func FuzzCoordinatorBodies(f *testing.F) {
	seeds := []any{
		LeaseRequest{Worker: "w"},
		HeartbeatRequest{LeaseID: 1},
		CompleteRequest{LeaseID: 1, UnitID: 1, Result: &explore.UnitResultState{Schedules: 3, BuggyRuns: [][2]int{{2, 1}}}},
		ParkRequest{LeaseID: 1, UnitID: 1, Unit: &explore.UnitState{Key: []int{0, 1}, Engine: &explore.EngineState{Kind: "bounded"}}},
	}
	for i, s := range seeds {
		body, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), body)
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		jc := testJob(t, "CS.account_bad", explore.DFS, 60)
		jc.LeaseTTL = 40 * time.Millisecond // a unit a fuzzed lease holds comes back soon
		c, err := NewCoordinator(jc)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c.Serve(l)
		defer c.Close()
		for c.sched.Status().Phase == "seeding" {
			time.Sleep(50 * time.Microsecond)
		}
		var lease LeaseReply
		rawPost(t, c, "/v1/lease", LeaseRequest{Worker: "held"}, &lease)

		handlers := []http.HandlerFunc{c.handleLease, c.handleHeartbeat, c.handleComplete, c.handlePark}
		h := handlers[int(endpoint)%len(handlers)]
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))

		// Hand the held unit back, then let a worker finish the job.
		var pr ParkReply
		rawPost(t, c, "/v1/park", ParkRequest{LeaseID: lease.LeaseID, UnitID: lease.UnitID, Unit: lease.Unit}, &pr)
		if err := RunWorker(WorkerConfig{Addr: "http://" + c.Addr(), Name: "w", Client: fastClient(c)}); err != nil {
			t.Fatalf("worker: %v", err)
		}
		if _, err := c.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	})
}
