// Package faultinject provides deterministic crash points for the
// robustness tests of the exploration stack. A point is armed with a
// countdown; the n-th Hit call on that point fires exactly once, letting a
// test kill a search at execution N, corrupt a checkpoint write mid-file,
// or panic a worker between taking a unit and reporting it — and then prove that
// resume reproduces the uninterrupted run.
//
// The package is a process-global registry, so tests that arm points must
// not run concurrently with each other (the explore/study test suites run
// their faultinject cases sequentially). Production code only pays one
// atomic load per call site while nothing is armed.
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Point identifies one crash site compiled into the exploration stack.
type Point int

const (
	// ExploreInterrupt fires in the exploration drivers' per-execution
	// poll, simulating a SIGINT arriving before the N-th execution.
	ExploreInterrupt Point = iota
	// CheckpointWrite fires inside Checkpoint.Save, simulating the process
	// dying mid-write: a truncated temp file is left behind and the real
	// checkpoint is never replaced.
	CheckpointWrite
	// PoolUnitPanic fires in an in-process worker's per-execution poll,
	// panicking the worker between taking a unit and reporting it.
	PoolUnitPanic
	// CheckpointDirSync fires inside fsatomic.WriteFile between the rename
	// and the parent-directory fsync, simulating a power loss in the window
	// where the new file's bytes are durable but its directory entry may
	// not be: after "reboot" either the old or the new file is present,
	// both complete.
	CheckpointDirSync
	// RPCDropRequest fires in the distributed client before a request is
	// sent: the message is lost on the wire and the caller sees a transient
	// error (retry with backoff covers it).
	RPCDropRequest
	// RPCDropReply fires in the distributed client after the server
	// processed a request but before the reply is read: the server-side
	// effect happened, the client retries, and the server must treat the
	// duplicate idempotently.
	RPCDropReply
	// RPCDuplicate fires in the distributed client and delivers the same
	// request twice back to back; the server must absorb the duplicate.
	RPCDuplicate
	// DistWorkerCrash fires in a distributed worker's per-execution poll,
	// simulating kill -9 mid-unit: the worker abandons its lease without a
	// word and the coordinator must re-dispatch after expiry.
	DistWorkerCrash
	// DistCoordCrash fires in the coordinator's unit-completion handler
	// after the result is recorded but before it is acknowledged,
	// simulating the coordinator dying mid-merge; a resumed coordinator
	// must reconstruct the job from its last checkpoint.
	DistCoordCrash
	// PoolStallHead fires when the unit scheduler hands out a pass's
	// lexicographically first unit, on either transport: the unit is split
	// and its head half held back until the units behind it have finished a
	// whole schedule budget between them — pinning the interleaving in which
	// a budget handed to whoever counts first keeps the wrong schedules.
	PoolStallHead
	// CorpusWrite fires in the schedule corpus's entry save, before any
	// byte reaches the filesystem: the process dies with the update lost
	// and the previous on-disk entry must remain byte-identical.
	CorpusWrite
	// CheckpointSlow fires inside Checkpoint.Save before any byte is
	// written, simulating a slow disk: the write takes SlowWrite longer.
	CheckpointSlow
	numPoints
)

// SlowWrite is how much longer a write CheckpointSlow hits takes.
const SlowWrite = time.Second

// ErrInjected is the sentinel returned by code paths that simulate a crash
// (rather than panic): callers treat it as "the process died here".
var ErrInjected = errors.New("faultinject: simulated crash")

var (
	armed atomic.Int32 // number of armed points; the fast-path gate
	mu    sync.Mutex
	count [numPoints]int64 // remaining Hit calls before firing; 0 = disarmed
)

// Arm schedules point to fire on its n-th Hit call (n >= 1). Arming
// replaces any previous countdown for the point.
func Arm(p Point, n int64) {
	if n < 1 {
		panic("faultinject: Arm needs n >= 1")
	}
	mu.Lock()
	if count[p] == 0 {
		armed.Add(1)
	}
	count[p] = n
	mu.Unlock()
}

// Disarm cancels a pending countdown for point.
func Disarm(p Point) {
	mu.Lock()
	if count[p] != 0 {
		count[p] = 0
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	for p := range count {
		if count[p] != 0 {
			count[p] = 0
			armed.Add(-1)
		}
	}
	mu.Unlock()
}

// Hit decrements point's countdown and reports whether it fired. With
// nothing armed anywhere it is a single atomic load.
func Hit(p Point) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	if count[p] == 0 {
		return false
	}
	count[p]--
	if count[p] == 0 {
		armed.Add(-1)
		return true
	}
	return false
}
