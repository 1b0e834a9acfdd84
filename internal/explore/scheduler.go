package explore

// The unit scheduler: the one driver that partitions a search. It owns the
// units of a pass — queued, owned or done, each stored as the UnitState a
// checkpoint or a lease carries — and hands out the lexicographically
// smallest queued one, so a budgeted pass fills its front (BudgetReached)
// about when a sequential search would stop. It runs the pass loop, with
// IPB/IDB bound k+1 speculatively behind bound k, and it is the only
// checkpoint writer. Workers run one loop (WorkUnits), in-process by direct
// calls or in internal/dist's worker processes over HTTP.
//
// Park is the only suspension. An owner polls its unit's verdict before every
// execution (in-process) or heartbeat (HTTP), and is asked to park for a stop
// (nothing more is handed out; the pass ends once no unit is owned), for a
// periodic checkpoint (written once the active pass's owners have parked),
// or for a donation (a worker found nothing to take: the smallest owned unit
// parks, is split, and both halves are queued). An owned unit stays stored
// as dispatched, so a checkpoint can be written at any moment.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sctbench/internal/faultinject"
	"sctbench/internal/sched"
	"sctbench/internal/vthread"
)

// seedUnits is how many units ShardTree cuts every pass into; splitting on
// starvation balances the rest.
const seedUnits = 8

// unitDonate asks an owner to park so that its unit can be split; in-process
// owners wait for one execution first, so a unit always makes progress.
const unitDonate = UnitAbandon + 1

// LeaseStatus says what a worker asking for a unit is to do.
type LeaseStatus int

const (
	LeaseUnit  LeaseStatus = iota // a unit is leased
	LeaseWait                     // nothing to hand out now; ask again
	LeaseDrain                    // the search is stopping; exit
	LeaseDone                     // the search is over; exit
)

// Lease is one unit handed to a worker: its frontier as dispatched (read-only)
// and the pass's budget. ID is the transport's name for it (0 in-process).
type Lease struct {
	ID     int64
	UnitID int
	Unit   *UnitState
	Budget int
	u      *unit // in-process
}

// unit is one prefix-pinned subtree of a pass.
type unit struct {
	id      int
	p       *pass
	state   UnitState        // as dispatched, or as last parked
	res     *UnitResultState // non-nil once done
	owned   bool
	stalled bool         // held back by faultinject.PoolStallHead
	verdict atomic.Int32 // the owner's next poll (UnitAction or unitDonate), read unlocked
}

// pass is one DFS/DPOR tree, or one bound of an IPB/IDB sweep.
type pass struct {
	bound  int
	budget int     // Limit minus what earlier bounds committed (exact once active)
	held   int     // schedules of the done, unforfeited units
	units  []*unit // done ones included; a split retires its unit
	// over seals the pass (budget reached, or cancelled): owners abandon and
	// late reports are stale. own counts its executions against execLimit, a
	// sweep's MaxExecutions guard.
	over, budgetHit bool
	own, execLimit  atomic.Int64
}

// Scheduler partitions one tree search among workers. Build it with
// NewScheduler or ResumeScheduler and Run it; a coordinator serves remote
// workers with Lease, Poll, Report and Release meanwhile.
type Scheduler struct {
	cfg           Config
	tech          Technique
	sweep         bool
	ctl           *stopCtl
	execs, nextCk atomic.Int64 // executions; where the next periodic checkpoint is owed
	ckMu          sync.Mutex   // orders checkpoint writes

	mu             sync.Mutex
	cond           *sync.Cond
	r              *Result // committed by earlier passes
	counted        int     // schedules of committed bounds
	committedExecs int64   // executions of committed bounds
	bound          int     // the bound to start at
	passes         []*pass // the active pass, then the speculative one
	byID           map[int]*unit
	nextID         int
	donor          *unit // asked to park for a donation
	gather         bool  // a periodic checkpoint waits for the active pass to park
	stopping       bool
	finished       bool
}

// NewScheduler builds the scheduler of a fresh search with a partitionable
// technique (DFS, IPB, IDB or DPOR).
func NewScheduler(cfg Config, tech Technique) (*Scheduler, error) {
	if _, err := newSearcher(cfg, tech, 0); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, tech: tech, sweep: tech == IPB || tech == IDB,
		ctl: newStopCtl(cfg), r: &Result{Technique: tech}, byID: map[int]*unit{}}
	s.cond = sync.NewCond(&s.mu)
	s.nextCk.Store(math.MaxInt64)
	if cfg.CheckpointPath != "" && cfg.CheckpointEvery > 0 {
		s.nextCk.Store(int64(cfg.CheckpointEvery))
	}
	return s, nil
}

// ResumeScheduler rebuilds a suspended pass from a unit-set checkpoint,
// whichever transport wrote it. The search parameters come from the file, the
// program environment and stop and checkpoint controls from cfg. Every unit's
// frontier is validated here.
func ResumeScheduler(ck *Checkpoint, cfg Config) (*Scheduler, error) {
	ps := ck.Pool
	if ps == nil {
		return nil, errors.New("checkpoint: no unit set (a sequential file resumes on runSequential)")
	}
	cfg, tech, r, err := ck.resumeBase(cfg)
	if err != nil {
		return nil, err
	}
	s, err := NewScheduler(cfg, tech)
	if err != nil {
		return nil, err
	}
	for i := range ps.Units {
		if _, err := restoreSearcher(s.cfg, ps.Units[i].Engine); err != nil {
			return nil, fmt.Errorf("checkpoint: unit %d: %w", i, err)
		}
	}
	ps.rebaseWork(r)
	s.r, s.counted, s.committedExecs, s.bound = r, ps.Counted, ps.CommittedExecs, ck.Bound
	if len(ps.Units)+len(ps.Done) > 0 { // else the pass was never seeded
		p := s.newPass(ck.Bound, ps.OwnExecs)
		s.install(p, slices.Clone(ps.Units), ps.Done)
		s.checkBudget(p)
	}
	return s, nil
}

// Run explores the search to its end with cfg.Workers in-process workers
// besides any remote ones, and returns the result.
func (s *Scheduler) Run() *Result {
	var wg sync.WaitGroup
	for range s.cfg.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = WorkUnits(s.cfg, &localWorker{s: s}) // the in-process transport never fails
		}()
	}
	s.runPasses()
	wg.Wait()
	return s.r
}

// newPass adds an empty pass at bound, with own executions already spent.
func (s *Scheduler) newPass(bound int, own int64) *pass {
	p := &pass{bound: bound, budget: s.cfg.Limit - s.counted}
	p.own.Store(own)
	p.execLimit.Store(s.execLimit())
	s.passes = append(s.passes, p)
	return p
}

// execLimit is the MaxExecutions guard of a pass starting now.
func (s *Scheduler) execLimit() int64 {
	if !s.sweep {
		return math.MaxInt64
	}
	return int64(s.cfg.MaxExecutions) - s.committedExecs
}

// seed adds a fresh pass at bound, sharded by ShardTree; a panic out of the
// sharding run forfeits the root.
func (s *Scheduler) seed(bound int) *pass {
	set := func() (set *ShardSet) {
		defer func() {
			if rec := recover(); rec != nil {
				set = &ShardSet{Done: []UnitResultState{{PanicMsg: fmt.Sprint(rec)}}}
			}
		}()
		set, _ = ShardTree(s.cfg, s.tech, bound, seedUnits) // the technique was checked
		return set
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.newPass(bound, 0)
	s.install(p, set.Units, set.Done)
	for _, u := range p.units {
		if w := u.work(); w != nil {
			p.own.Add(int64(w.Executions))
		}
	}
	s.checkBudget(p)
	s.cond.Broadcast()
	return p
}

// install adds queued units and finished results to p.
func (s *Scheduler) install(p *pass, units []UnitState, done []UnitResultState) {
	for i := range done {
		u := s.add(p, UnitState{Key: done[i].Key})
		if u.res = &done[i]; u.res.PanicMsg == "" {
			p.held += u.res.Schedules
		}
	}
	for _, us := range units {
		s.add(p, us)
	}
}

func (s *Scheduler) add(p *pass, us UnitState) *unit {
	s.nextID++
	u := &unit{id: s.nextID, p: p, state: us}
	p.units = append(p.units, u)
	s.byID[u.id] = u
	return u
}

// work is the unit's tallies: its result when done, its partial ones
// otherwise (nil before it first ran).
func (u *unit) work() *UnitResultState {
	if u.res != nil {
		return u.res
	}
	return u.state.Partial
}

// runPasses is the pass loop: wait for the active pass to end (writing
// periodic checkpoints meanwhile), merge and commit it, promote the
// speculative pass behind it.
func (s *Scheduler) runPasses() {
	maxBound := s.bound
	if s.sweep {
		maxBound = s.cfg.MaxBound
	}
	var active *pass
	if len(s.passes) > 0 { // resumed; only this goroutine writes s.passes
		active = s.passes[0]
	} else {
		active = s.seed(s.bound)
	}
	for {
		var spec *pass
		if active.bound < maxBound {
			spec = s.seed(active.bound + 1)
		}
		s.mu.Lock()
		for !s.ended(active) {
			if !s.gather || s.anyOwned(active) {
				s.cond.Wait()
				continue
			}
			s.mu.Unlock()
			s.WriteCheckpoint()
			s.mu.Lock()
			s.gather = false
			s.nextCk.Store(s.execs.Load() + int64(s.cfg.CheckpointEvery))
			s.cond.Broadcast()
		}
		guard := active.own.Load() >= active.execLimit.Load()
		stopped := StopCompleted
		if reason, ok := s.ctl.reason(); ok && !active.budgetHit && !guard {
			stopped = reason
		}
		s.seal(active)
		if s.gather { // still owed: the next pass gathers at its first execution
			s.gather = false
			s.nextCk.Store(s.execs.Load())
		}
		if stopped != StopCompleted {
			s.cancel(spec)
			s.mu.Unlock()
			s.WriteCheckpoint()
			s.mu.Lock()
		}
		var results []*UnitResultState
		for _, u := range active.units {
			if w := u.work(); w != nil {
				results = append(results, w)
			}
		}
		m := MergeUnitStates(results, s.cfg.Limit-s.counted)
		final := m.Commit(s.r, PassEnd{Iterative: s.sweep, Bound: active.bound, MaxBound: maxBound,
			Counted: s.counted, Limit: s.cfg.Limit, GuardHit: guard, Stopped: stopped})
		s.counted += m.Schedules
		s.committedExecs += active.own.Load()
		if final {
			s.cancel(spec)
			s.finished = true
		} else {
			// Promote: the speculative pass ran under the budgets known at
			// its creation; either may be used up already.
			s.passes = s.passes[1:]
			active = spec
			active.budget = s.cfg.Limit - s.counted
			active.execLimit.Store(s.execLimit())
			s.checkBudget(active)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		if final {
			return
		}
	}
}

// ended: every unit done, the budget held, the guard spent with no unit
// owned, or a stop with no unit of any pass owned (a crash waits for nobody).
func (s *Scheduler) ended(p *pass) bool {
	switch {
	case s.ctl.crashed.Load():
		return true
	case s.stopping:
		return !slices.ContainsFunc(s.passes, s.anyOwned)
	case p.budgetHit:
		return true
	case p.own.Load() >= p.execLimit.Load():
		return !s.anyOwned(p)
	}
	return !slices.ContainsFunc(p.units, func(u *unit) bool { return u.res == nil })
}

func (s *Scheduler) anyOwned(p *pass) bool {
	return slices.ContainsFunc(p.units, func(u *unit) bool { return u.owned })
}

// tell sets the verdict of the owned units among units.
func tell(units []*unit, a UnitAction) {
	for _, u := range units {
		if u.owned {
			u.verdict.Store(int32(a))
		}
	}
}

// smallest is the lexicographically smallest of the units ok accepts.
func smallest(units []*unit, ok func(*unit) bool) (best *unit) {
	for _, u := range units {
		if ok(u) && (best == nil || sched.CompareBranchKeys(u.state.Key, best.state.Key) < 0) {
			best = u
		}
	}
	return best
}

// seal ends a pass: its owners abandon at their next poll.
func (s *Scheduler) seal(p *pass) {
	p.over = true
	tell(p.units, UnitAbandon)
	if s.donor != nil && s.donor.p == p {
		s.donor = nil
	}
}

// cancel discards a speculative pass (nil: none) the search never reached,
// work and all, so a complete sweep's tallies are the sequential search's.
func (s *Scheduler) cancel(p *pass) {
	if p != nil {
		s.seal(p)
		s.passes = slices.DeleteFunc(s.passes, func(q *pass) bool { return q == p })
	}
}

// checkBudget seals a pass whose finished front holds its budget
// (BudgetReached); it runs when a unit finishes and on promotion.
func (s *Scheduler) checkBudget(p *pass) {
	if p.over || p.held < p.budget {
		return
	}
	var done []*UnitResultState
	var live [][]int
	for _, u := range p.units {
		if u.res != nil {
			done = append(done, u.res)
		} else {
			live = append(live, u.state.Key)
		}
	}
	if BudgetReached(done, live, p.budget) {
		p.budgetHit = true
		s.seal(p)
	}
}

// Stop ends the search: every owned unit parks, nothing more is handed out,
// and the active pass is checkpointed.
func (s *Scheduler) Stop(reason StopReason) {
	s.ctl.trip(reason)
	s.mu.Lock()
	s.stopLocked()
	s.mu.Unlock()
}

// PollStop polls the stop sources — Config.Interrupt and Deadline, and an
// injected ExploreInterrupt — and stops the search once one has fired.
// In-process workers call it before every execution; a coordinator, which
// has no per-execution poll of its own, on a timer.
func (s *Scheduler) PollStop() bool {
	reason, stop := s.ctl.poll()
	if stop {
		s.Stop(reason)
	}
	return stop
}

func (s *Scheduler) stopLocked() {
	if s.stopping || s.finished {
		return
	}
	s.stopping = true
	for _, p := range s.passes {
		tell(p.units, UnitPark)
	}
	s.cond.Broadcast()
}

// Halt is a simulated kill -9: the search stops at once and writes nothing
// more.
func (s *Scheduler) Halt() {
	s.ctl.crash()
	s.Stop(StopInterrupted)
}

// leaseLocked hands out the lexicographically smallest queued unit of the
// earliest pass that has one. Finding none asks an owner to donate.
func (s *Scheduler) leaseLocked() (*Lease, LeaseStatus) {
	switch {
	case s.finished:
		return nil, LeaseDone
	case s.stopping:
		return nil, LeaseDrain
	}
	for i, p := range s.passes {
		if p.over || p.own.Load() >= p.execLimit.Load() || (i == 0 && s.gather) {
			continue
		}
		if u := s.pick(p); u != nil {
			u.owned = true
			u.verdict.Store(int32(UnitContinue))
			st := u.state
			return &Lease{UnitID: u.id, Unit: &st, Budget: p.budget, u: u}, LeaseUnit
		}
	}
	s.askDonation()
	return nil, LeaseWait
}

// pick is the smallest queued unit of p, nil when none may run. When
// faultinject.PoolStallHead fires on a pass's head unit (the nil key), the
// head is split and its head half held back until the units behind it have
// finished a whole budget, or nothing else is left to run.
func (s *Scheduler) pick(p *pass) *unit {
	held := func(u *unit) bool {
		return u.stalled && p.held < p.budget &&
			slices.ContainsFunc(p.units, func(x *unit) bool { return x != u && x.res == nil })
	}
	best := smallest(p.units, func(u *unit) bool { return u.res == nil && !u.owned && !held(u) })
	switch {
	case best == nil:
	case best.stalled:
		best.stalled = false
		if stallReleased != nil {
			stallReleased(p.held, p.budget)
		}
	case len(best.state.Key) == 0 && faultinject.Hit(faultinject.PoolStallHead):
		s.split(best, best.state).stalled = true
		return s.pick(p)
	}
	return best
}

// stallReleased, nil outside tests, is called with the pass's held schedules
// and its budget when pick releases a head half PoolStallHead held back: the
// seam TestParallelTruncatedHeadStalled checks the interleaving with.
var stallReleased func(held, budget int)

// askDonation asks the smallest owned unit of the earliest pass to park.
func (s *Scheduler) askDonation() {
	if s.donor != nil {
		return
	}
	for i, p := range s.passes {
		if p.over || (i == 0 && s.gather) {
			continue
		}
		pick := smallest(p.units, func(u *unit) bool { return u.owned })
		if pick != nil && pick.verdict.CompareAndSwap(int32(UnitContinue), int32(unitDonate)) {
			s.donor = pick
			return
		}
	}
}

// split retires u — a late report about it is stale — and queues its parked
// state st, returned, and the subtree st's engine carves off (if any).
func (s *Scheduler) split(u *unit, st UnitState) *unit {
	p := u.p
	p.units = slices.DeleteFunc(p.units, func(x *unit) bool { return x == u })
	delete(s.byID, u.id)
	head := s.add(p, st)
	if eng, err := restoreSearcher(s.cfg, st.Engine); err == nil {
		if sub := eng.split(); sub != nil {
			head.state.Engine = eng.snapshot()
			s.add(p, stateOf(sub.eng, sub.key, false, nil))
		}
	}
	return head
}

// finishLocked files a report about u — done, parked or abandoned — false
// when it is stale: its pass is sealed, or the search over.
func (s *Scheduler) finishLocked(u *unit, run *UnitRun) bool {
	donor := u == s.donor
	if donor {
		s.donor = nil
	}
	u.owned = false
	defer s.cond.Broadcast()
	switch {
	case u.res != nil:
		return run.Done != nil // a duplicate completion: determinism makes it identical
	case u.p.over || s.finished:
		return false
	case run.Done != nil:
		if u.res = run.Done; u.res.PanicMsg == "" {
			u.p.held += u.res.Schedules
			s.checkBudget(u.p)
		}
	case run.Parked != nil && donor && !s.stopping:
		s.split(u, *run.Parked)
	case run.Parked != nil:
		u.state = *run.Parked
	}
	return true
}

// count adds n executions to p and the search; past the next periodic mark
// the active pass's owners are asked to park for a checkpoint.
func (s *Scheduler) count(p *pass, n int64) {
	p.own.Add(n)
	if s.execs.Add(n) < s.nextCk.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gather || s.stopping || s.finished || len(s.passes) == 0 {
		return
	}
	s.gather = true
	s.nextCk.Store(math.MaxInt64)
	tell(s.passes[0].units, UnitPark)
	s.cond.Broadcast()
}

// action is u's verdict: the one set on it, or park once its pass's guard is
// spent.
func (u *unit) action() UnitAction {
	if v := UnitAction(u.verdict.Load()); v != UnitContinue {
		return v
	}
	if u.p.own.Load() >= u.p.execLimit.Load() {
		return UnitPark
	}
	return UnitContinue
}

// localWorker is the in-process transport; it counts executions as they
// start.
type localWorker struct {
	s   *Scheduler
	ran bool // an execution has run since the unit was taken
}

// Take blocks until a unit is leased, nil once the search is over or stopping.
func (w *localWorker) Take() (*Lease, error) {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	w.ran = false
	for {
		switch l, st := w.s.leaseLocked(); st {
		case LeaseUnit:
			return l, nil
		case LeaseWait:
			w.s.cond.Wait()
		default:
			return nil, nil
		}
	}
}

// Poll is the per-execution verdict: atomic loads and the stop sources while
// nothing is asked.
func (w *localWorker) Poll(l *Lease) UnitAction {
	switch a := l.u.action(); {
	case a == unitDonate && w.ran:
		return UnitPark
	case a != UnitContinue && a != unitDonate:
		return a
	case w.s.PollStop():
		return UnitPark
	case faultinject.Hit(faultinject.PoolUnitPanic):
		panic("faultinject: worker death mid-unit")
	}
	w.s.count(l.u.p, 1)
	w.ran = true
	return UnitContinue
}

func (w *localWorker) Finish(l *Lease, run *UnitRun) error {
	w.s.mu.Lock()
	w.s.finishLocked(l.u, run)
	w.s.mu.Unlock()
	return nil
}

// Lease is Take for a coordinator: it never blocks.
func (s *Scheduler) Lease() (*Lease, LeaseStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaseLocked()
}

// Poll is the remote owner's verdict for unit id; UnitAbandon once the unit
// is done, retired, released or its pass sealed.
func (s *Scheduler) Poll(id int) UnitAction {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.byID[id]
	if u == nil || u.res != nil || u.p.over || !u.owned {
		return UnitAbandon
	}
	if a := u.action(); a != unitDonate {
		return a
	}
	return UnitPark
}

// Report files a remote report about unit id, done or parked, and counts the
// executions it ran; false when stale. A completion is accepted from whoever
// ran the unit (the first wins), a park only while the unit is owned
// (fencing a stale lease is the caller's job).
func (s *Scheduler) Report(id int, run *UnitRun) bool {
	tally := run.Done
	if run.Parked != nil {
		tally = run.Parked.Partial
	}
	s.mu.Lock()
	u := s.byID[id]
	if u == nil || (run.Parked != nil && (!u.owned || u.res != nil)) {
		s.mu.Unlock()
		return false
	}
	var n int64
	if tally != nil && u.res == nil {
		n = int64(tally.Executions)
		if d := u.state.Partial; d != nil {
			n -= int64(d.Executions)
		}
	}
	p := u.p
	ok := s.finishLocked(u, run)
	s.mu.Unlock()
	if ok && n > 0 {
		s.count(p, n)
	}
	return ok
}

// Release queues owned unit id again as stored: its lease was lost, or its
// owner panicked and it is retried.
func (s *Scheduler) Release(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u := s.byID[id]; u != nil && u.owned && u.res == nil {
		s.finishLocked(u, &UnitRun{})
	}
}

// SchedulerStatus is a progress snapshot: Phase is "seeding", "running",
// "draining" or "done"; Bound, UnitsDone and UnitsTotal describe the active
// pass; Schedules is what the committed passes and its units have counted.
type SchedulerStatus struct {
	Phase                                   string
	Bound, UnitsDone, UnitsTotal, Schedules int
}

// Status reports the search's progress.
func (s *Scheduler) Status() SchedulerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedulerStatus{Phase: "running", Bound: s.bound, Schedules: s.counted}
	switch {
	case s.finished:
		st.Phase = "done"
	case s.stopping:
		st.Phase = "draining"
	case len(s.passes) == 0:
		st.Phase = "seeding"
		return st
	}
	p := s.passes[0]
	st.Bound, st.UnitsTotal = p.bound, len(p.units)
	for _, u := range p.units {
		if u.res != nil {
			st.UnitsDone++
		}
		if w := u.work(); w != nil && !s.finished { // a finished search has them in s.counted
			st.Schedules += w.Schedules
		}
	}
	return st
}

// WriteCheckpoint writes the active pass's checkpoint now, owned units as
// dispatched — nothing once the last pass is committed (a file pairing the
// result with its folded-in pass would count it twice) or after a crash. An
// injected crash mid-write halts the search; a real write error is recorded
// on the result.
func (s *Scheduler) WriteCheckpoint() {
	if s.cfg.CheckpointPath == "" {
		return
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	s.mu.Lock()
	if s.finished || s.ctl.crashed.Load() || len(s.passes) == 0 {
		s.mu.Unlock()
		return
	}
	p := s.passes[0]
	ps := &PoolState{Counted: s.counted, CommittedExecs: s.committedExecs, OwnExecs: p.own.Load()}
	for _, u := range p.units {
		if u.res != nil {
			ps.Done = append(ps.Done, *u.res)
		} else {
			ps.Units = append(ps.Units, u.state)
		}
	}
	// The baseline is the pre-merge result: the units' tallies are folded in
	// on resume (rebaseWork), so folding them here too would count them twice.
	work := ps.unitWork()
	ps.Execs = int64(s.r.Executions + work.Executions)
	ps.Steps = s.r.TotalSteps + work.Steps
	ps.Aborts = int64(s.r.AbortedExecutions + work.Aborted)
	rr := *s.r // marshaled outside the lock; FoldInto replaces its reference fields
	ck := newCheckpoint(s.cfg, s.tech.String(), &rr)
	ck.Bound, ck.Pool = p.bound, ps
	s.mu.Unlock()
	switch err := ck.Save(s.cfg.CheckpointPath); {
	case errors.Is(err, faultinject.ErrInjected):
		s.Halt()
	case err != nil:
		s.mu.Lock()
		s.r.CheckpointError = err.Error()
		s.mu.Unlock()
	}
}

// unitWork sums the work tallies of the pass's units, parked and done.
func (ps *PoolState) unitWork() (work PassMerge) {
	add := func(u *UnitResultState) {
		work.Executions += u.Executions
		work.Steps += u.Steps
		work.Aborted += u.Aborted
	}
	for i := range ps.Done {
		add(&ps.Done[i])
	}
	for _, us := range ps.Units {
		if us.Partial != nil {
			add(us.Partial)
		}
	}
	return work
}

// rebaseWork sets r's work tallies to the baseline a resumed pass builds on,
// so that baseline plus the merged per-unit tallies reproduces the
// exploration's totals whoever wrote the checkpoint: units that carry their
// own tallies are subtracted here and added back by the merge; units from a
// build that counted work on shared counters carry none, and the whole
// counter value lands in the baseline.
func (ps *PoolState) rebaseWork(r *Result) {
	pass := ps.unitWork()
	r.Executions = int(ps.Execs) - pass.Executions
	r.TotalSteps = ps.Steps - pass.Steps
	r.AbortedExecutions = int(ps.Aborts) - pass.Aborted
}

// ---------------------------------------------------------------------------
// The worker loop, and the unit seams internal/dist and the ledger use.

// UnitTransport is a worker's connection to a scheduler: direct calls
// in-process, or HTTP requests to a coordinator (internal/dist).
type UnitTransport interface {
	// Take leases the next unit, nil when the worker is to exit.
	Take() (*Lease, error)
	// Poll is the leased unit's verdict, asked before every execution.
	Poll(l *Lease) UnitAction
	// Finish reports how the unit ended: done, parked or abandoned.
	Finish(l *Lease, run *UnitRun) error
}

// WorkUnits is the one worker loop of both transports: take a unit, explore
// it, report it, until the transport has no more work or fails. One Executor
// serves every unit; a frontier that does not restore is reported forfeited.
func WorkUnits(cfg Config, t UnitTransport) error {
	cfg = cfg.withDefaults()
	var ex *vthread.Executor
	defer func() {
		if ex != nil {
			ex.Close()
		}
	}()
	for {
		l, err := t.Take()
		if l == nil || err != nil {
			return err
		}
		if ex == nil {
			ex = newExecutor(cfg)
		}
		run, end, err := runLease(cfg, ex, l.Unit, l.Budget, func() UnitAction { return t.Poll(l) })
		switch {
		case err != nil:
			run = &UnitRun{Done: &UnitResultState{Key: slices.Clone(l.Unit.Key), PanicMsg: err.Error()}}
		case end == unitPanicked:
			// The executor may hold a wedged run (on the reference engine,
			// parked goroutines): abandon it, the price of surviving.
			ex = nil
		}
		if err := t.Finish(l, run); err != nil {
			return err
		}
	}
}

// newSearcher builds the fresh engine of one partitionable pass: a DFS or
// DPOR tree, or bound bound of an IPB/IDB sweep.
func newSearcher(cfg Config, tech Technique, bound int) (searcher, error) {
	switch tech {
	case DFS:
		return newEngine(cfg, CostNone, 0), nil
	case IPB:
		return newEngine(cfg, CostPreemptions, bound), nil
	case IDB:
		return newEngine(cfg, CostDelays, bound), nil
	case DPOR:
		return newDPOREngine(cfg), nil
	}
	return nil, fmt.Errorf("explore: technique %s cannot be partitioned", tech)
}

// ShardSet is the initial partition of one pass into units: for DFS/IPB/IDB
// disjoint contiguous lexicographic ranges whose union is the pass, for DPOR
// units that cover every Mazurkiewicz trace (possibly with reversals
// duplicated across units — the verdict-level caveat of parallel.go).
type ShardSet struct {
	Units []UnitState
	// Done carries results finished during sharding itself: a tree whose
	// first execution exhausts it completes before it can be split.
	Done []UnitResultState
}

// ShardTree builds the engine for one pass and splits it into up to want
// units. The sharding run performs one execution (the stack to split only
// exists after a run); its tallies ride along in the donor unit's Partial.
// bound is the IPB/IDB bound and ignored otherwise; Rand and sleepset are
// rejected. A panic out of the sharding run reaches the caller, with the
// executor left unclosed.
func ShardTree(cfg Config, tech Technique, bound, want int) (*ShardSet, error) {
	cfg = cfg.withDefaults()
	eng, err := newSearcher(cfg, tech, bound)
	if err != nil {
		return nil, err
	}
	ex := newExecutor(cfg)
	eng.setExec(ex)
	res := &UnitResultState{}
	runUnitOnce(eng, res)
	ex.Close()
	if !eng.backtrack() {
		res.Pruned = eng.wasPruned()
		res.Branches = eng.prunedBranches()
		return &ShardSet{Done: []UnitResultState{*res}}, nil
	}
	set := &ShardSet{}
	for len(set.Units) < want-1 {
		sub := eng.split()
		if sub == nil {
			break
		}
		set.Units = append(set.Units, stateOf(sub.eng, sub.key, false, nil))
	}
	// The donor continues from its post-backtrack position as a positioned
	// unit; its nil key, a prefix of every branch key, sorts it first.
	set.Units = append(set.Units, stateOf(eng, nil, true, res))
	return set, nil
}

// stateOf serializes a live unit: its engine's frontier, the key of the
// first position it covers, and its tallies so far.
func stateOf(eng searcher, key []int, positioned bool, res *UnitResultState) UnitState {
	return UnitState{Key: slices.Clone(key), Positioned: positioned, Engine: eng.snapshot(), Partial: res}
}

// UnitRun is how a unit run ended: Done for a finished (or panicked, or
// self-limited) unit, Parked for a suspended one, both nil for an abandoned
// one. LimitHit says the unit alone counted its whole schedule budget and
// stopped there — still just a finished unit to whoever merges it.
type UnitRun struct {
	Done     *UnitResultState
	Parked   *UnitState
	LimitHit bool
}

// RunUnit is one unit run of WorkUnits on an executor of its own: restore the
// unit's frontier and explore it to exhaustion, the budget (<= 0:
// unlimited), or poll's verdict (nil: never stop early), asked before every
// execution. A panic inside the program or substrate is contained: the unit
// completes with PanicMsg set, forfeited at merge time, and the wedged
// executor is abandoned. us is not written to, so a lost lease re-dispatches
// it as it was.
func RunUnit(cfg Config, us *UnitState, budget int, poll func() UnitAction) (*UnitRun, error) {
	cfg = cfg.withDefaults()
	ex := newExecutor(cfg)
	run, end, err := runLease(cfg, ex, us, budget, poll)
	if end != unitPanicked {
		ex.Close()
	}
	return run, err
}

// runLease explores one unit on ex — restore, the unit step with panics
// contained, package how it ended — without writing to us.
func runLease(cfg Config, ex *vthread.Executor, us *UnitState, budget int, poll func() UnitAction) (*UnitRun, unitEnd, error) {
	eng, err := restoreSearcher(cfg, us.Engine)
	if err != nil {
		return nil, unitAbandoned, fmt.Errorf("unit: %w", err)
	}
	res := us.Partial.clone()
	if res == nil {
		res = &UnitResultState{Key: slices.Clone(us.Key)}
	}
	eng.setExec(ex)
	switch end := exploreContained(eng, us.Positioned, res, unitDriver{poll: poll, budget: func() int { return budget }}); end {
	case unitParked:
		parked := stateOf(eng, us.Key, true, res)
		return &UnitRun{Parked: &parked}, end, nil
	case unitAbandoned:
		return &UnitRun{}, end, nil
	default:
		return &UnitRun{Done: res, LimitHit: end == unitLimited}, end, nil
	}
}
