// Package dist is the fault-tolerant distributed exploration service: a
// coordinator that serves one job's unit scheduler (explore.Scheduler) to
// worker processes, which run the scheduler's one worker loop
// (explore.WorkUnits) with their own Executors, speaking JSON over HTTP on
// localhost-first listeners. Unit frontiers travel as explore's checkpoint
// types (UnitState out, UnitResultState back), so a distributed job
// checkpoints, resumes, splits and merges exactly as an in-process one, and
// is bit-identical to the sequential run for DFS/IPB/IDB — complete, cut by
// the limit, or drained and resumed — and verdict-identical for DPOR.
//
// Robustness is the design center, not speed:
//
//   - Every dispatched unit is covered by a lease with a TTL that heartbeats
//     extend. A dead, hung or partitioned worker's lease expires and the
//     unit's stored frontier is re-dispatched; determinism makes the re-run
//     identical to the lost one.
//   - Completions are deduplicated per unit (first wins), parks are fenced by
//     lease ID, and a split retires its unit, so no late or repeated report
//     can corrupt counts or regress a unit.
//   - Park is the only suspension: a heartbeat answered StatusDrain parks
//     the unit — for a drain, a periodic checkpoint, or a donation to a
//     worker that found nothing to lease — and the worker asks for a lease
//     again.
//   - Workers retry transient RPC failures with backoff and jitter, enforce
//     the job deadline on their own, and refuse a job whose program hash or
//     checkpoint version their build does not share. Request bodies are
//     capped (maxBodyBytes).
//   - SIGTERM drains gracefully: workers park and hand their frontiers back,
//     and the coordinator writes a resumable job checkpoint (fsatomic).
package dist

import "sctbench/internal/explore"

// Reply status strings shared across endpoints.
const (
	// StatusOK acknowledges the request.
	StatusOK = "ok"
	// StatusUnit carries a leased unit (lease endpoint).
	StatusUnit = "unit"
	// StatusWait asks the worker to retry shortly (seeding, or nothing
	// pending while the pass drains).
	StatusWait = "wait"
	// StatusDone reports the job finished; the worker should exit.
	StatusDone = "done"
	// StatusDrain asks the worker to park its unit (or exit, on lease).
	StatusDrain = "drain"
	// StatusCancel asks the worker to abandon its unit: the unit or pass
	// no longer needs it (completed elsewhere, budget hit).
	StatusCancel = "cancel"
	// StatusStale rejects a request whose lease or unit is unknown.
	StatusStale = "stale"
)

// JobSpec describes the job to a connecting worker: everything it needs
// to rebuild the same program environment the coordinator shards under.
// The promoted racy-variable set rides along so every process promotes the
// same scheduling points without re-running the race phase — cross-process
// determinism by construction.
type JobSpec struct {
	Benchmark string   `json:"benchmark"`
	Technique string   `json:"technique"`
	Limit     int      `json:"limit"`
	Seed      uint64   `json:"seed,omitempty"`
	Racy      []string `json:"racy,omitempty"`
	NoRace    bool     `json:"noRace,omitempty"`
	// DeadlineMillis is the job deadline as Unix milliseconds (0 = none);
	// workers park past it even if the coordinator is unreachable.
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
	// ProgramHash is the benchmark program's content hash
	// (vthread.ProgramHash) and Version the checkpoint format the unit
	// states travel in (explore.CheckpointVersion). A worker whose build
	// disagrees on either refuses the job before its first lease: its
	// units would not be the coordinator's.
	ProgramHash string `json:"programHash"`
	Version     int    `json:"version"`
}

// LeaseRequest asks for a unit to execute.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseReply grants a unit (StatusUnit) or tells the worker what to do
// instead (wait/drain/done).
type LeaseReply struct {
	Status  string `json:"status"`
	LeaseID int64  `json:"leaseId,omitempty"`
	UnitID  int    `json:"unitId,omitempty"`
	// Unit is the frontier to execute, in checkpoint wire form.
	Unit *explore.UnitState `json:"unit,omitempty"`
	// Budget is the pass's schedule budget; the unit stops itself (and the
	// worker reports LimitHit) once it alone has counted that many.
	Budget int `json:"budget,omitempty"`
	// HeartbeatMillis is how often the worker must heartbeat to keep the
	// lease alive; RetryMillis is the wait before retrying after
	// StatusWait.
	HeartbeatMillis int64 `json:"heartbeatMillis,omitempty"`
	RetryMillis     int64 `json:"retryMillis,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	LeaseID int64 `json:"leaseId"`
}

// HeartbeatReply: ok, drain (park now), cancel (abandon now) or stale
// (lease expired; abandon).
type HeartbeatReply struct {
	Status string `json:"status"`
}

// CompleteRequest submits a finished unit's result. UnitID identifies the
// unit so a completion that outlived its lease (expiry re-dispatch race)
// is still accepted when the unit has no result yet — determinism makes
// it identical to what the re-dispatched run will produce. LimitHit says
// the unit stopped at its own budget rather than exhausting its range;
// either way it is finished, and the coordinator treats it as such.
type CompleteRequest struct {
	LeaseID  int64                    `json:"leaseId"`
	UnitID   int                      `json:"unitId"`
	Result   *explore.UnitResultState `json:"result"`
	LimitHit bool                     `json:"limitHit,omitempty"`
}

// CompleteReply: ok (recorded, or an idempotently-ignored duplicate) or
// stale (the pass moved on; the result was discarded).
type CompleteReply struct {
	Status string `json:"status"`
}

// ParkRequest hands an in-flight unit's positioned frontier back: the
// coordinator asked for it (drain, periodic checkpoint, donation) or the
// worker was interrupted. Parks are fenced by lease: a stale park is
// rejected so an expired lease can never regress a re-dispatched unit.
type ParkRequest struct {
	LeaseID int64              `json:"leaseId"`
	UnitID  int                `json:"unitId"`
	Unit    *explore.UnitState `json:"unit"`
}

// ParkReply: ok or stale.
type ParkReply struct {
	Status string `json:"status"`
}

// StatusReply is the coordinator's progress snapshot (GET /v1/status).
type StatusReply struct {
	Phase      string `json:"phase"`
	Bound      int    `json:"bound"`
	UnitsDone  int    `json:"unitsDone"`
	UnitsTotal int    `json:"unitsTotal"`
	Leases     int    `json:"leases"`
	Schedules  int    `json:"schedules"`
	Workers    int    `json:"workers"`
}
