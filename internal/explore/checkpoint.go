package explore

// Checkpoint/resume: crash-safe exploration. Every driver serializes the
// live units of the pass it is in — each a branch-keyed depth-first stack,
// with per-node backtrack/sleep/done state for the pruning engines, and its
// tallies so far — next to the Result earlier passes committed, into a
// versioned JSON file, and Resume reconstructs the search from it. The file
// has two shapes for a tree search, told apart by what they hold: the
// sequential driver's one root unit (top-level engine, bound and boundExecs,
// the pass folded into the partial Result — sequentialCheckpoint) and the
// unit scheduler's unit set (PoolState), whichever transport its workers
// use. A checkpoint is only ever taken when an engine is *positioned to
// run*: at the top of the unit loop (exploreUnit), after a successful
// backtrack or on a fresh engine, before the next execution. Restoring such a state and re-entering that loop
// therefore continues the exact schedule enumeration, so a killed-and-resumed
// exploration finishes with bit-identical counts and witnesses to an
// uninterrupted one — sequential or partitioned, complete or cut by Limit
// (verdict-identical for parallel DPOR, whose counts already depend on
// splitting; see parallel.go).
//
// What is NOT serialized: the DPOR happens-before state (vector clocks,
// prevOf/spawnOf, per-object access logs) is derived from the stack and
// rebuilt from step zero by a restored engine's first analyze() pass
// (dporEngine.hbValid), and the Rand scheduler's RNG needs
// no state at all because every run i is seeded independently from
// (Seed, i) — see randRun. Checkpoint files are written atomically (temp
// file + rename), so a crash during the write leaves the previous
// checkpoint intact; the faultinject.CheckpointWrite point simulates
// exactly that crash in tests.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sctbench/internal/faultinject"
	"sctbench/internal/fsatomic"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// CheckpointVersion is the checkpoint file format version. LoadCheckpoint
// also reads version 1, whose unit results listed every buggy schedule's
// offset (buggyOffs) where version 2 stores runs of them (buggyRuns), and
// rejects any other version with a clear error.
const CheckpointVersion = 2

// CheckpointMeta is CLI-facing context carried verbatim into checkpoint
// files, so a resuming process can rebuild the same program environment
// (which benchmark, and the promoted-variable set of its race phase)
// without re-running the race detection phase.
type CheckpointMeta struct {
	// Benchmark names the benchmark under exploration.
	Benchmark string
	// Racy is the promoted shared-variable set from the race phase.
	Racy []string
	// NoRace records that promotion was disabled (every variable visible).
	NoRace bool
}

// Checkpoint is the serialized live state of an interrupted exploration.
type Checkpoint struct {
	Version   int    `json:"version"`
	Technique string `json:"technique"` // DFS | IPB | IDB | Rand | DPOR | sleepset

	// Search parameters, restored on resume (overriding the resuming
	// Config, so a resumed run cannot diverge from the uninterrupted one).
	Limit         int    `json:"limit"`
	Seed          uint64 `json:"seed,omitempty"`
	MaxBound      int    `json:"maxBound,omitempty"`
	MaxExecutions int    `json:"maxExecutions,omitempty"`

	// CLI metadata (see CheckpointMeta).
	Benchmark string   `json:"benchmark,omitempty"`
	Racy      []string `json:"racy,omitempty"`
	NoRace    bool     `json:"noRace,omitempty"`

	// Result is the partial result at the moment of interruption. In a
	// sequential file it has the interrupted pass folded in, except for
	// Executions and the engines' pruning tallies, which the engine state
	// carries; in a pool file it is the pre-merge baseline (PoolState).
	Result *Result `json:"result"`

	// Engine is the sequential driver's root unit (nil for unit-set checkpoints
	// and for Rand, which has no frontier).
	Engine *EngineState `json:"engine,omitempty"`

	// Bound and BoundExecs are the iterative-bounding sweep position:
	// the bound being enumerated and the executions committed by earlier
	// bounds (IPB/IDB only).
	Bound      int `json:"bound,omitempty"`
	BoundExecs int `json:"boundExecs,omitempty"`

	// NextRun is the first unexplored run index (Rand only).
	NextRun int `json:"nextRun,omitempty"`

	// Pool is the unit set of the scheduler's active pass (partitioned
	// checkpoints only).
	Pool *PoolState `json:"pool,omitempty"`
}

// EngineState is the serialized frontier of one searcher.
type EngineState struct {
	// Kind identifies the engine: "bounded" (DFS/IPB/IDB), or the
	// partial-order-reduction walker as "dpor" or, in its sleep-set-only
	// form, "sleepset". Both walker kinds carry the same node codec.
	Kind string `json:"kind"`
	// Model and Bound are the bounded engine's cost model and budget.
	Model int `json:"model,omitempty"`
	Bound int `json:"bound,omitempty"`
	// Pruned is the bounded engine's skipped-an-over-bound-branch flag.
	Pruned bool `json:"pruned,omitempty"`
	// PrunedBranches is the pruning engines' retired-sibling count.
	PrunedBranches int `json:"prunedBranches,omitempty"`
	// Executions performed by this engine so far.
	Executions int `json:"executions"`
	// MaxThreads, AnalyzeFrom and Borrowed are DPOR bookkeeping (dpor.go).
	MaxThreads  int `json:"maxThreads,omitempty"`
	AnalyzeFrom int `json:"analyzeFrom,omitempty"`
	Borrowed    int `json:"borrowed,omitempty"`
	// Nodes is the DFS stack, shallowest first.
	Nodes []NodeState `json:"nodes"`
}

// NodeState is one serialized scheduling point of an engine's stack. Which
// fields are meaningful depends on the engine kind; irrelevant ones are
// omitted.
type NodeState struct {
	Order []int `json:"order"`
	Idx   int   `json:"idx"`
	// Bounded engine: per-choice costs, owned sibling range, prefix cost.
	Costs []int `json:"costs,omitempty"`
	Hi    int   `json:"hi,omitempty"`
	Base  int   `json:"base,omitempty"`
	// POR walker: per-choice pending footprints and the sleep set, the
	// explored and to-explore choice sets, thread count at this point, and
	// the selecting thread of a case node (-1 = thread node).
	Infos     []PendingState `json:"infos,omitempty"`
	Sleep     []SleepEntry   `json:"sleep,omitempty"`
	Done      []bool         `json:"done,omitempty"`
	Backtrack []bool         `json:"backtrack,omitempty"`
	NThreads  int            `json:"nthreads,omitempty"`
	SelOf     int            `json:"selOf,omitempty"`
}

// PendingState mirrors vthread.PendingInfo for serialization (Footprint is
// opaque; it round-trips through its object-key list).
type PendingState struct {
	IsAccess bool     `json:"isAccess,omitempty"`
	Key      string   `json:"key,omitempty"`
	IsWrite  bool     `json:"isWrite,omitempty"`
	Objects  []string `json:"objects,omitempty"`
	ReadOnly bool     `json:"readOnly,omitempty"`
	Opaque   bool     `json:"opaque,omitempty"`
	IsJoin   bool     `json:"isJoin,omitempty"`
	JoinOf   int      `json:"joinOf,omitempty"`
}

// SleepEntry is one sleep-set member; entries are sorted by thread id so a
// checkpoint's bytes are deterministic.
type SleepEntry struct {
	Thread int          `json:"thread"`
	Info   PendingState `json:"info"`
}

// PoolState is a suspended parallel pass, as the in-process pool and the
// distributed coordinator both write it: every parked unit (engine plus
// partial per-unit tallies), every finished unit's result, and the
// cross-pass totals a resume continues from.
type PoolState struct {
	// OwnExecs is the executions this pass has performed so far.
	OwnExecs int64 `json:"ownExecs,omitempty"`
	// Execs, Steps and Aborts are the whole exploration's work so far:
	// everything committed by earlier passes (cancelled speculation
	// included) plus the per-unit tallies of Units and Done.
	Execs  int64 `json:"execs"`
	Steps  int64 `json:"steps"`
	Aborts int64 `json:"aborts,omitempty"`
	// Counted and CommittedExecs are the schedules and executions committed
	// by earlier bounds (iterative parallel only).
	Counted        int   `json:"counted,omitempty"`
	CommittedExecs int64 `json:"committedExecs,omitempty"`

	Units []UnitState       `json:"units"`
	Done  []UnitResultState `json:"done,omitempty"`
}

// UnitState is one parked unit of a suspended job.
type UnitState struct {
	Key []int `json:"key"`
	// Positioned units run immediately on resume; unpositioned (donated,
	// never started) units backtrack first — unit.positioned, serialized.
	Positioned bool             `json:"positioned"`
	Engine     *EngineState     `json:"engine"`
	Partial    *UnitResultState `json:"partial,omitempty"`
}

// RunStats is the per-benchmark max-statistics fold of Table 3 (max enabled
// threads, max contested scheduling points, max thread count), embedded in
// every per-unit and per-pass accumulator of the parallel drivers.
type RunStats struct {
	MaxEnabled int `json:"maxEnabled,omitempty"`
	SchedPts   int `json:"schedPoints,omitempty"`
	Threads    int `json:"threads,omitempty"`
}

// UnitResultState is everything a unit contributes to the canonical merge
// — in memory while a worker loop fills it, and on the wire and
// on disk as it is.
type UnitResultState struct {
	Key       []int `json:"key"`
	Schedules int   `json:"schedules"` // terminal schedules counted by this unit
	// BuggyRuns are the unit's buggy schedules as runs of consecutive
	// 1-based offsets within the unit, [first, length], ascending and
	// disjoint: a unit's size grows with its runs, not with its buggy
	// schedules. Failure and Witness describe the first.
	BuggyRuns [][2]int         `json:"buggyRuns,omitempty"`
	Failure   *vthread.Failure `json:"failure,omitempty"`
	Witness   sched.Schedule   `json:"witness,omitempty"`
	Pruned    bool             `json:"pruned,omitempty"`
	Branches  int              `json:"branches,omitempty"` // siblings retired unexplored by POR
	RunStats
	// PanicMsg marks a unit whose worker panicked mid-unit: its schedule
	// counts are forfeited (the merge skips them), only its run statistics
	// and work tallies fold in, and the job reports the panic instead of
	// completeness.
	PanicMsg string `json:"panic,omitempty"`
	// Executions, Steps and Aborted are the unit's own work tallies. Summed
	// over a disjoint covering set of completed units they equal the
	// sequential totals.
	Executions int   `json:"executions,omitempty"`
	Steps      int64 `json:"steps,omitempty"`
	Aborted    int   `json:"aborted,omitempty"`
	// StatMarks is the history of RunStats: one entry per execution that
	// raised a maximum. A sequential search cut by Limit stops at its last
	// counted schedule, so for the unit the cut lands in the merge must
	// report the maxima as of that schedule, not of the unit's whole run.
	StatMarks []StatMark `json:"statMarks,omitempty"`
}

// StatMark is a unit's RunStats right after an execution raised them;
// Before is how many schedules the unit had counted when that execution
// began.
type StatMark struct {
	Before int `json:"before"`
	RunStats
}

// ---------------------------------------------------------------------------
// Stop control: interruption, deadline, and the Stopped verdict.

// StopReason says why an exploration stopped. The zero value means the
// search ran to its natural end (exhaustion, or Rand's full sweep).
type StopReason int

const (
	// StopCompleted: the search was not cut short.
	StopCompleted StopReason = iota
	// StopLimit: the schedule or execution budget stopped it.
	StopLimit
	// StopDeadline: the wall-clock deadline expired.
	StopDeadline
	// StopInterrupted: an interrupt (SIGINT/SIGTERM, or an injected fault)
	// stopped it.
	StopInterrupted
)

// String returns the reason as reported in the CSV status column.
func (s StopReason) String() string {
	switch s {
	case StopCompleted:
		return "completed"
	case StopLimit:
		return "limit"
	case StopDeadline:
		return "deadline"
	case StopInterrupted:
		return "interrupted"
	}
	return "unknown"
}

// stopCtl is the shared stop signal of one exploration: polled once before
// every execution by runSequential and every Rand sweeper, and tripped by
// the scheduler's Stop. The fast path when nothing is configured and nothing
// armed is two nil checks and one atomic load.
type stopCtl struct {
	interrupt <-chan struct{}
	deadline  time.Time
	tripped   atomic.Int32 // 0 = running, else StopReason+1
	// crashed marks a simulated mid-write death (faultinject): the final
	// stop path must then NOT write the checkpoint again — the process is
	// pretending to be dead, and the on-disk file must stay whatever the
	// crash left behind.
	crashed atomic.Bool
}

func newStopCtl(cfg Config) *stopCtl {
	return &stopCtl{interrupt: cfg.Interrupt, deadline: cfg.Deadline}
}

// trip latches the first stop reason.
func (c *stopCtl) trip(r StopReason) {
	c.tripped.CompareAndSwap(0, int32(r)+1)
}

// crash is a simulated death in the middle of a periodic checkpoint write
// (faultinject): stop as if killed, leaving on disk whatever the crash left.
func (c *stopCtl) crash() {
	c.crashed.Store(true)
	c.trip(StopInterrupted)
}

// reason returns the latched stop reason, false while running.
func (c *stopCtl) reason() (StopReason, bool) {
	if v := c.tripped.Load(); v != 0 {
		return StopReason(v - 1), true
	}
	return StopCompleted, false
}

// poll checks every stop source and latches the first that fires.
func (c *stopCtl) poll() (StopReason, bool) {
	if v := c.tripped.Load(); v != 0 {
		return StopReason(v - 1), true
	}
	if faultinject.Hit(faultinject.ExploreInterrupt) {
		c.trip(StopInterrupted)
		return c.reason()
	}
	if c.interrupt != nil {
		select {
		case <-c.interrupt:
			c.trip(StopInterrupted)
			return c.reason()
		default:
		}
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		c.trip(StopDeadline)
		return c.reason()
	}
	return StopCompleted, false
}

// ckWriter paces periodic checkpoint writes by execution count.
type ckWriter struct {
	every int
	last  int
}

func newCkWriter(cfg Config) *ckWriter {
	if cfg.CheckpointPath == "" || cfg.CheckpointEvery <= 0 {
		return nil
	}
	return &ckWriter{every: cfg.CheckpointEvery}
}

// due reports that another periodic write is owed at this execution count.
func (w *ckWriter) due(execs int) bool {
	return w != nil && execs-w.last >= w.every
}

// ---------------------------------------------------------------------------
// File I/O.

// Save writes the checkpoint atomically and durably (temp file, fsync,
// rename, parent-directory fsync — see fsatomic.WriteFile), so a crash or
// power loss mid-write never destroys the previous checkpoint. The
// faultinject.CheckpointWrite point simulates a death mid-write (half the
// bytes in the temp file, no rename) and the faultinject.CheckpointDirSync
// point a death between the rename and the directory sync; both return
// faultinject.ErrInjected, which callers treat as "the process died here".
// The faultinject.CheckpointSlow point only makes the write slow.
func (ck *Checkpoint) Save(path string) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	data = append(data, '\n')
	if faultinject.Hit(faultinject.CheckpointSlow) {
		time.Sleep(faultinject.SlowWrite)
	}
	if faultinject.Hit(faultinject.CheckpointWrite) {
		_ = os.WriteFile(path+".tmp", data[:len(data)/2], 0o644)
		return faultinject.ErrInjected
	}
	if err := fsatomic.WriteFile(path, data, 0o644); err != nil {
		if errors.Is(err, faultinject.ErrInjected) {
			return err
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file, with clear errors
// for corrupt or truncated files and unsupported versions.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("checkpoint %s: corrupt or truncated: %v", path, err)
	}
	if ck.Version == 1 {
		if err := ck.upgradeV1(data); err != nil {
			return nil, fmt.Errorf("checkpoint %s: corrupt or truncated: %v", path, err)
		}
	}
	if err := ck.validate(); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// v1Offsets is what a version-1 file says that version 2 does not read: the
// buggy offsets of every unit result.
type v1Offsets struct {
	Pool *struct {
		Units []struct {
			Partial *struct {
				BuggyOffs []int `json:"buggyOffs"`
			} `json:"partial"`
		} `json:"units"`
		Done []struct {
			BuggyOffs []int `json:"buggyOffs"`
		} `json:"done"`
	} `json:"pool"`
}

// upgradeV1 makes ck, decoded from the version-1 file data, a version-2
// checkpoint: every unit result's buggy offsets become runs. Offsets out of
// order make runs out of order, which validate rejects.
func (ck *Checkpoint) upgradeV1(data []byte) error {
	var v1 v1Offsets
	if err := json.Unmarshal(data, &v1); err != nil {
		return err
	}
	ck.Version = CheckpointVersion
	if v1.Pool == nil || ck.Pool == nil {
		return nil
	}
	toRuns := func(u *UnitResultState, offs []int) {
		for _, off := range offs {
			u.addBuggy(off)
		}
	}
	// Both decodings read the same bytes, so the lists line up; the guards
	// are for inputs that would make them not.
	for i, d := range v1.Pool.Done {
		if i < len(ck.Pool.Done) {
			toRuns(&ck.Pool.Done[i], d.BuggyOffs)
		}
	}
	for i, u := range v1.Pool.Units {
		if u.Partial != nil && i < len(ck.Pool.Units) && ck.Pool.Units[i].Partial != nil {
			toRuns(ck.Pool.Units[i].Partial, u.Partial.BuggyOffs)
		}
	}
	return nil
}

func (ck *Checkpoint) validate() error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("format version %d, this build reads versions 1 and %d",
			ck.Version, CheckpointVersion)
	}
	switch ck.Technique {
	case "DFS", "IPB", "IDB", "Rand", "DPOR", "sleepset":
	default:
		return fmt.Errorf("unknown technique %q", ck.Technique)
	}
	if ck.Result == nil {
		return errors.New("missing partial result")
	}
	if ck.Limit <= 0 {
		return fmt.Errorf("non-positive limit %d", ck.Limit)
	}
	if ps := ck.Pool; ps != nil {
		for i := range ps.Done {
			if err := ps.Done[i].CheckBuggyRuns(); err != nil {
				return fmt.Errorf("done unit %d: %w", i, err)
			}
		}
		for i, us := range ps.Units {
			if err := us.Partial.CheckBuggyRuns(); err != nil {
				return fmt.Errorf("unit %d: %w", i, err)
			}
		}
	}
	return nil
}

// CheckBuggyRuns reports buggy runs that are empty, overlapping, out of
// order or past the unit's schedules (nil is a unit that has run nothing).
func (u *UnitResultState) CheckBuggyRuns() error {
	if u == nil {
		return nil
	}
	if u.Schedules < 0 {
		return fmt.Errorf("%d schedules", u.Schedules)
	}
	next := 1 // the first offset the next run may start at
	for _, run := range u.BuggyRuns {
		if run[0] < next || run[1] < 1 || run[1] > u.Schedules-run[0]+1 {
			return fmt.Errorf("buggy run %v overlaps, is out of order or runs past %d schedules", run, u.Schedules)
		}
		next = run[0] + run[1]
	}
	return nil
}

// newCheckpoint builds the envelope every driver's snapshot shares.
func newCheckpoint(cfg Config, tech string, r *Result) *Checkpoint {
	return &Checkpoint{
		Version:       CheckpointVersion,
		Technique:     tech,
		Limit:         cfg.Limit,
		Seed:          cfg.Seed,
		MaxBound:      cfg.MaxBound,
		MaxExecutions: cfg.MaxExecutions,
		Benchmark:     cfg.Meta.Benchmark,
		Racy:          cfg.Meta.Racy,
		NoRace:        cfg.Meta.NoRace,
		Result:        r,
	}
}

// writeCheckpoint saves ck to cfg.CheckpointPath when one is configured.
// An injected crash returns true (the caller must stop as if killed); a
// real write error is recorded on r and the search continues — losing the
// checkpoint must not lose the run.
func writeCheckpoint(cfg Config, r *Result, ck *Checkpoint) (crashed bool) {
	if cfg.CheckpointPath == "" {
		return false
	}
	err := ck.Save(cfg.CheckpointPath)
	if err == nil {
		return false
	}
	if errors.Is(err, faultinject.ErrInjected) {
		return true
	}
	r.CheckpointError = err.Error()
	return false
}

// ---------------------------------------------------------------------------
// Engine snapshot/restore.

// mapSlice converts a slice element-wise (the wire types are the engine
// types with serializable fields).
func mapSlice[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func threadToInt(t sched.ThreadID) int { return int(t) }
func intToThread(x int) sched.ThreadID { return sched.ThreadID(x) }

func pendingToState(p *vthread.PendingInfo) PendingState {
	ps := PendingState{
		IsAccess: p.IsAccess, Key: p.Key, IsWrite: p.IsWrite,
		ReadOnly: p.ReadOnly, Opaque: p.Opaque,
		IsJoin: p.IsJoin, JoinOf: int(p.JoinOf),
	}
	for i := 0; i < p.Objects.Len(); i++ {
		ps.Objects = append(ps.Objects, p.Objects.Obj(i))
	}
	return ps
}

func stateToPending(ps PendingState) vthread.PendingInfo {
	return vthread.PendingInfo{
		IsAccess: ps.IsAccess, Key: ps.Key, IsWrite: ps.IsWrite,
		Objects:  vthread.NewFootprint(ps.Objects...),
		ReadOnly: ps.ReadOnly, Opaque: ps.Opaque,
		IsJoin: ps.IsJoin, JoinOf: sched.ThreadID(ps.JoinOf),
	}
}

func sleepToEntries(sleep []dporSleeper) []SleepEntry {
	if len(sleep) == 0 {
		return nil
	}
	es := make([]SleepEntry, len(sleep))
	for i, s := range sleep {
		es[i] = SleepEntry{Thread: int(s.t), Info: pendingToState(s.info)}
	}
	sort.Slice(es, func(a, b int) bool { return es[a].Thread < es[b].Thread })
	return es
}

// flagsToBools lists, per choice, whether the flag bit is set.
func flagsToBools(flags []uint8, bit uint8) []bool {
	bs := make([]bool, len(flags))
	for k, f := range flags {
		bs[k] = f&bit != 0
	}
	return bs
}

// restoreSearcher rebuilds a searcher from its serialized frontier,
// validating every structural invariant so a hand-edited or damaged
// checkpoint fails loudly instead of corrupting the search.
func restoreSearcher(cfg Config, st *EngineState, spare searcher) (searcher, error) {
	if st == nil {
		return nil, errors.New("missing engine state")
	}
	switch st.Kind {
	case "bounded":
		return restoreBounded(cfg, st, spare)
	case "sleepset", "dpor":
		return restoreDPOR(cfg, st)
	}
	return nil, fmt.Errorf("unknown engine kind %q", st.Kind)
}

// techName is the engine's checkpoint technique string.
func (e *engine) techName() string {
	switch e.model {
	case CostPreemptions:
		return "IPB"
	case CostDelays:
		return "IDB"
	}
	return "DFS"
}

func (e *engine) snapshot() *EngineState {
	st := &EngineState{Kind: "bounded", Model: int(e.model), Bound: e.bound,
		Pruned: e.pruned, Executions: e.executions,
		Nodes: make([]NodeState, len(e.stack))}
	for i := range e.stack {
		nd := &e.stack[i]
		st.Nodes[i] = NodeState{
			Order: mapSlice(e.orders[nd.off:nd.off+nd.n], threadToInt),
			Costs: e.costs(nd),
			Idx:   nd.idx, Hi: nd.hi, Base: nd.base,
		}
	}
	return st
}

// costs lists the incremental cost of each of nd's choices, the form a
// checkpoint file keeps.
func (e *engine) costs(nd *node) []int {
	costs := make([]int, nd.n)
	for j := range costs {
		costs[j] = e.cost(nd, j)
	}
	return costs
}

// restoreBounded rebuilds the engine from its frontier. Costs are the model's
// (engine.cost): a file whose costs or prefix costs are not is an error.
func restoreBounded(cfg Config, st *EngineState, spare searcher) (*engine, error) {
	if st.Model < int(CostNone) || st.Model > int(CostDelays) {
		return nil, fmt.Errorf("bad cost model %d", st.Model)
	}
	e := newEngine(cfg, CostModel(st.Model), st.Bound, spare)
	e.pruned = st.Pruned
	e.executions = st.Executions
	base := 0
	for i, ns := range st.Nodes {
		if len(ns.Order) == 0 || len(ns.Costs) != len(ns.Order) ||
			ns.Idx < 0 || ns.Idx > ns.Hi || ns.Hi >= len(ns.Order) {
			return nil, fmt.Errorf("inconsistent frontier node %d", i)
		}
		nd := node{off: len(e.orders), n: len(ns.Order), idx: ns.Idx, hi: ns.Hi, base: ns.Base,
			costly: e.model != CostNone && len(ns.Costs) > 1 && ns.Costs[1] != 0}
		if costs := e.costs(&nd); !slices.Equal(ns.Costs, costs) {
			return nil, fmt.Errorf("frontier node %d: costs %v, want %v under %v", i, ns.Costs, costs, e.model)
		}
		if ns.Base != base {
			return nil, fmt.Errorf("frontier node %d: prefix cost %d, want %d", i, ns.Base, base)
		}
		base += e.cost(&nd, nd.idx)
		e.orders = append(e.orders, mapSlice(ns.Order, intToThread)...)
		e.stack = append(e.stack, nd)
	}
	return e, nil
}

// techName tells the walker's two forms apart in checkpoints (the engine
// kind is the same string, lower-cased). A "sleepset" file from a build that still had a dedicated sleep-set engine
// carries no done/backtrack sets, so restoreDPOR rejects it as an
// inconsistent frontier rather than mis-resuming it.
func (e *dporEngine) techName() string {
	if e.sleepOnly {
		return "sleepset"
	}
	return "DPOR"
}

func (e *dporEngine) snapshot() *EngineState {
	st := &EngineState{Kind: strings.ToLower(e.techName()), Executions: e.executions,
		PrunedBranches: e.pruned, MaxThreads: e.maxThreads,
		AnalyzeFrom: e.analyzeFrom, Borrowed: e.borrowed,
		Nodes: make([]NodeState, len(e.stack))}
	for i := range e.stack {
		nd := &e.stack[i]
		st.Nodes[i] = NodeState{
			Order:     mapSlice(nd.order, threadToInt),
			Infos:     mapSlice(nd.infos, pendingToState),
			Idx:       nd.idx,
			Done:      flagsToBools(nd.flags, dporDone),
			Backtrack: flagsToBools(nd.flags, dporBacktrack),
			Sleep:     sleepToEntries(nd.sleep),
			NThreads:  nd.nthreads,
			SelOf:     int(nd.selOf),
		}
	}
	return st
}

// restoreDPOR rebuilds the walker from its frontier. Sleep entries and the
// choices of a thread node are thread ids the engine indexes by, so they
// must lie in [0, NThreads), and sleep entries must be strictly ascending
// (a duplicate would be two footprints for one sleeping thread).
func restoreDPOR(cfg Config, st *EngineState) (*dporEngine, error) {
	e := newDPOREngine(cfg)
	e.sleepOnly = st.Kind == "sleepset"
	e.executions = st.Executions
	e.pruned = st.PrunedBranches
	e.maxThreads = st.MaxThreads
	e.borrowed = st.Borrowed
	e.analyzeFrom = st.AnalyzeFrom
	if e.analyzeFrom < 0 || e.analyzeFrom > len(st.Nodes) {
		return nil, fmt.Errorf("analyzeFrom %d out of range", e.analyzeFrom)
	}
	e.stack = make([]dporNode, len(st.Nodes))
	for i, ns := range st.Nodes {
		if len(ns.Order) == 0 || len(ns.Infos) != len(ns.Order) ||
			len(ns.Done) != len(ns.Order) || len(ns.Backtrack) != len(ns.Order) ||
			ns.Idx < 0 || ns.Idx >= len(ns.Order) {
			return nil, fmt.Errorf("inconsistent frontier node %d", i)
		}
		if ns.NThreads < 1 {
			return nil, fmt.Errorf("frontier node %d: thread count %d", i, ns.NThreads)
		}
		isCase := sched.ThreadID(ns.SelOf) != vthread.NoThread
		for _, t := range ns.Order {
			if !isCase && (t < 0 || t >= ns.NThreads) {
				return nil, fmt.Errorf("frontier node %d: thread %d outside [0, %d)", i, t, ns.NThreads)
			}
		}
		for k, s := range ns.Sleep {
			if s.Thread < 0 || s.Thread >= ns.NThreads {
				return nil, fmt.Errorf("frontier node %d: sleeping thread %d outside [0, %d)", i, s.Thread, ns.NThreads)
			}
			if k > 0 && s.Thread <= ns.Sleep[k-1].Thread {
				return nil, fmt.Errorf("frontier node %d: sleep entries not strictly ascending", i)
			}
		}
		nd := dporNode{
			order:    mapSlice(ns.Order, intToThread),
			infos:    make([]*vthread.PendingInfo, len(ns.Order)),
			own:      make([]vthread.PendingInfo, len(ns.Order)+len(ns.Sleep)),
			flags:    make([]uint8, len(ns.Order)),
			sleep:    make([]dporSleeper, len(ns.Sleep)),
			idx:      ns.Idx,
			nthreads: ns.NThreads,
			selOf:    sched.ThreadID(ns.SelOf),
		}
		for k := range ns.Order {
			nd.own[k] = stateToPending(ns.Infos[k])
			nd.infos[k] = &nd.own[k]
			if ns.Done[k] {
				nd.flags[k] |= dporDone
			}
			if ns.Backtrack[k] {
				nd.flags[k] |= dporBacktrack
			}
			if !isCase && slices.ContainsFunc(ns.Sleep, func(s SleepEntry) bool { return s.Thread == ns.Order[k] }) {
				nd.flags[k] |= dporAsleep
			}
		}
		for k, s := range ns.Sleep {
			info := &nd.own[len(ns.Order)+k]
			*info = stateToPending(s.Info)
			nd.sleep[k] = dporSleeper{sched.ThreadID(s.Thread), info}
		}
		e.stack[i] = nd
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Resume.

// sequentialCheckpoint snapshots runSequential between two executions of a
// pass's root unit, in the sequential shape every version has had: one
// engine frontier next to a partial Result with the pass folded in. It folds
// the unit into a copy of the committed r the way a pass stopped from outside
// is folded (Commit: the tallies, no verdict) and leaves the two counters the
// engine state carries, Executions and BranchesPruned, to it; e.Stopped is
// why the run is stopping, StopCompleted for a periodic snapshot.
func sequentialCheckpoint(cfg Config, r *Result, e PassEnd, eng searcher, res *UnitResultState) *Checkpoint {
	part, why := *r, e.Stopped
	e.Stopped = StopInterrupted
	m := MergeUnitStates([]*UnitResultState{res}, e.Limit-e.Counted)
	m.Commit(&part, e)
	part.Stopped = why
	part.Executions, part.BranchesPruned = 0, 0
	ck := newCheckpoint(cfg, eng.techName(), &part)
	ck.Engine = eng.snapshot()
	if e.Iterative {
		ck.Bound, ck.BoundExecs = e.Bound, r.Executions
	}
	return ck
}

// Resume reconstructs an interrupted exploration from a checkpoint and
// runs it onward — to completion, the limit, or the next interruption.
// cfg supplies the program and environment (Program, Visible, BoundsCheck,
// MaxSteps, Workers) plus fresh stop/checkpoint controls; the search
// parameters (Limit, Seed, MaxBound, MaxExecutions) come from the
// checkpoint. Every shape resumes the same way — a baseline Result, the live
// units of the interrupted pass, and the driver that wrote them: a
// sequential file is one positioned root unit and resumes on runSequential
// whatever cfg.Workers says, a unit-set file resumes on the scheduler (at
// least one in-process worker), and a Rand file carries no frontier and
// resumes at any worker count with identical results.
//
// A frontier that does not fit cfg.Program (a hand-edited file, or a program
// that changed since it was written) makes the engine replay a choice the
// program does not offer; the substrate reports that as a chooser-misuse
// panic, and Resume returns it as an error, whichever driver met it.
func Resume(ck *Checkpoint, cfg Config) (res *Result, err error) {
	misfit := func(panicMsg string) error {
		if !vthread.IsChooserMisuse(panicMsg) {
			return nil
		}
		return fmt.Errorf("checkpoint: frontier does not fit this program (%s)", panicMsg)
	}
	if ck.Pool != nil {
		cfg.Workers = max(cfg.Workers, 1)
		s, err := ResumeScheduler(ck, cfg)
		if err != nil {
			return nil, err
		}
		r := s.Run()
		if err := misfit(r.WorkerPanicMsg); err != nil { // contained: a forfeited unit
			return nil, err
		}
		return r, nil
	}
	cfg, tech, r, err := ck.resumeBase(cfg)
	if err != nil {
		return nil, err
	}
	if tech == Rand {
		if ck.NextRun < 0 || ck.NextRun > cfg.Limit {
			return nil, fmt.Errorf("checkpoint: nextRun %d out of range", ck.NextRun)
		}
		return runRand(cfg, r, ck.NextRun), nil
	}

	eng, err := restoreSearcher(cfg, ck.Engine, nil)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if eng.techName() != ck.Technique {
		return nil, fmt.Errorf("checkpoint: technique %s with the engine state of a %s search",
			ck.Technique, eng.techName())
	}
	// The file's Result has the interrupted pass folded in (see
	// sequentialCheckpoint). Read it as what it is: the baseline earlier
	// passes committed, plus one positioned unit whose tallies so far are the
	// pass's counted schedules and the engine's executions — everything else
	// the pass found stays in the baseline, where the merge only adds to it.
	unit := &UnitResultState{Schedules: r.Schedules, Executions: ck.Engine.Executions}
	if tech == IPB || tech == IDB {
		if ck.Engine.Bound != ck.Bound {
			return nil, fmt.Errorf("checkpoint: engine bound %d does not match %s at bound %d",
				ck.Engine.Bound, ck.Technique, ck.Bound)
		}
		unit.Schedules = r.NewSchedules
	}
	if unit.Schedules < 0 || unit.Schedules > r.Schedules {
		return nil, fmt.Errorf("checkpoint: a pass of %d schedules in a total of %d", unit.Schedules, r.Schedules)
	}
	r.Schedules -= unit.Schedules
	r.Executions = ck.BoundExecs
	defer func() {
		// runSequential contains nothing: the panic arrives here as it was.
		if rec := recover(); rec != nil {
			if err = misfit(fmt.Sprint(rec)); err == nil {
				panic(rec)
			}
			res = nil
		}
	}()
	return runSequential(cfg, r, ck.Bound, eng, unit), nil
}

// resumeBase checks ck and returns what every resumed driver starts from:
// cfg with the file's search parameters, the technique, and the carried-over
// result, whose Stopped and CheckpointError said how the *previous* run
// ended — this run's fate is its own (a driver sets Stopped only when it
// stops early, so a natural finish must read completed).
func (ck *Checkpoint) resumeBase(cfg Config) (Config, Technique, *Result, error) {
	if err := ck.validate(); err != nil {
		return cfg, 0, nil, fmt.Errorf("checkpoint: %w", err)
	}
	cfg.Limit, cfg.Seed, cfg.MaxBound, cfg.MaxExecutions = ck.Limit, ck.Seed, ck.MaxBound, ck.MaxExecutions
	r := *ck.Result
	r.Stopped, r.CheckpointError = StopCompleted, ""
	tech, ok := ParseTechnique(ck.Technique)
	if ck.Technique == "sleepset" && ck.Pool == nil { // a sequential-only form of DFS
		tech, ok = DFS, true
	}
	if !ok || tech != r.Technique {
		return cfg, 0, nil, fmt.Errorf("checkpoint: technique %q does not match its result's (%s)", ck.Technique, r.Technique)
	}
	return cfg.withDefaults(), tech, &r, nil
}

// clone copies a unit's tallies so a run can extend them without writing
// through to the checkpoint or lease they came from (a re-dispatched unit
// must start from exactly what was dispatched). nil stays nil.
func (u *UnitResultState) clone() *UnitResultState {
	if u == nil {
		return nil
	}
	cp := *u
	cp.BuggyRuns = slices.Clone(u.BuggyRuns)
	cp.StatMarks = slices.Clone(u.StatMarks)
	return &cp
}
