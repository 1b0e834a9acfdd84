package vthread

// Virtual time. Timers, tickers and context deadlines never consult the
// wall clock: time is an int64 tick counter owned by the World, and a
// fireable timer is a schedulable pseudo-step. The clock materialises as a
// goroutine-less pseudo-thread ("the clock thread") appended to the thread
// table at the first arm, whose pending operation is opTimerFire and whose
// enabledness is "some timer can fire and some program thread is still
// live". Every exploration engine therefore enumerates timer/step
// interleavings exactly like thread steps — the clock occupies a dense
// ThreadID, appears in enabled sets, costs preemptions and delays by the
// ordinary §2 arithmetic, lands in the trace, and replays — with no
// engine-side changes at all, the same move PR 5 made for select
// case-decision points.
//
// Which timer fires is not a choice: among the fireable timers the one
// with the smallest (deadline, arm sequence) fires, and the virtual now
// advances to its deadline. The schedule space explores *when* the clock
// runs relative to program steps, never *which* timer a clock step means,
// so a recorded trace replays deterministically.
//
// Fireability is deliberately conservative in a way that doubles as leak
// semantics: a delivery-style timer is fireable only while its channel has
// room, so a leaked ticker fires once, fills its one-slot channel and goes
// quiet — a thread blocked on a stopped or saturated ticker is a real
// modelled deadlock ("blocked forever"), while a thread blocked on a
// fireable timer is not ("blocked until the timer fires"). Dropped ticks
// are unobservable, so not exploring them is a sound stutter reduction.
//
// Every arm reads the virtual now (deadline = now + d) and every fire
// advances it, so arms and fires do NOT commute with each other even when
// their channels differ. The shared clockKey in every arm/fire footprint
// makes partial-order reduction see exactly that dependence.

// clockKey is the shared-object key of the virtual now, present in the
// footprint of every operation that reads or advances it.
const clockKey = "clock"

type timerKind int

const (
	timerOneShot timerKind = iota
	timerTicker
	timerDeadline // fires by cancelling a context subtree, no delivery
)

// vtimer is one clock entry. Delivery-style timers (one-shot, ticker) own
// a one-slot channel; deadline timers cancel their context instead.
type vtimer struct {
	kind     timerKind
	ch       *Chan // delivery channel (nil for timerDeadline)
	ctx      *Ctx  // cancellation target (timerDeadline only)
	deadline int64
	period   int64 // ticker re-arm interval
	armed    bool
	seq      int // arm order, the deterministic tiebreak between equal deadlines
}

// fireable reports whether the timer can fire right now.
func (v *vtimer) fireable() bool {
	if !v.armed {
		return false
	}
	if v.kind == timerDeadline {
		return !v.ctx.cancelled
	}
	return !v.ch.closed && v.ch.n < len(v.ch.buf)
}

// clock is the World's virtual-time state. The timers slice and the cached
// pseudo-thread struct are recycled across Executor runs; everything else
// is per-run and cleared by reset.
type clock struct {
	thread *Thread // the clock pseudo-thread, nil until the first arm of a run
	cached *Thread // struct reuse across runs (never enters the Executor pool)
	timers []*vtimer
	now    int64
	seq    int
}

// reset clears all per-run clock state so Executor reuse cannot carry
// armed timers, the advanced now or the pseudo-thread across runs.
func (c *clock) reset() {
	for i := range c.timers {
		c.timers[i] = nil
	}
	c.timers = c.timers[:0]
	c.now = 0
	c.seq = 0
	c.thread = nil
}

// nextFireable returns the fireable timer with the smallest
// (deadline, seq), or nil. This total order is what makes clock steps a
// deterministic function of the schedule prefix.
func (c *clock) nextFireable() *vtimer {
	var best *vtimer
	for _, v := range c.timers {
		if !v.fireable() {
			continue
		}
		if best == nil || v.deadline < best.deadline ||
			(v.deadline == best.deadline && v.seq < best.seq) {
			best = v
		}
	}
	return best
}

// armedCount reports how many timers are still armed; finishIdle uses it
// to tell "blocked forever" apart from "blocked with dead timers around".
func (c *clock) armedCount() int {
	n := 0
	for _, v := range c.timers {
		if v.armed {
			n++
		}
	}
	return n
}

// ensureClock returns the clock pseudo-thread, materialising it at the
// next dense ThreadID on first use. The struct has no goroutine, no gate
// and no pool membership: its steps execute inline on whichever goroutine
// holds the baton (World.fireTimer), so creation is just a table append —
// observationally a spawn, which is exactly how the nthreads watermark of
// the DPOR engine orders clock steps after the arm that created it.
func (w *World) ensureClock() *Thread {
	if w.clk.thread != nil {
		return w.clk.thread
	}
	id := ThreadID(len(w.threads))
	w.ensureNames(id)
	t := w.clk.cached
	if t == nil {
		t = &Thread{}
		w.clk.cached = t
	}
	t.w = w
	t.id = id
	t.name = "clock"
	t.key = w.keys[id]
	t.pending = pendingOp{kind: opTimerFire, thread: t}
	t.state = stateParked
	t.killed = false
	t.woken = false
	t.parkTo = nil
	t.isClock = true
	t.untrack()
	w.threads = append(w.threads, t)
	w.clk.thread = t
	return t
}

// clockEnabled is the enabledness predicate of opTimerFire: some timer can
// fire AND some program thread is still live. The liveness gate is what
// ends executions cleanly instead of ticking forever after the last
// program thread exits — an unobservable fire cannot matter.
func (w *World) clockEnabled() bool {
	return w.live > 0 && w.clk.nextFireable() != nil
}

// armTimer registers v with the clock (deadline = now + d, fresh arm
// sequence) and makes sure the clock pseudo-thread exists. d at or below
// zero arms for the current instant, like Go's NewTimer(-1).
func (w *World) armTimer(v *vtimer, d int64) {
	if d < 0 {
		d = 0
	}
	v.deadline = w.clk.now + d
	v.armed = true
	v.seq = w.clk.seq
	w.clk.seq++
	w.clk.timers = append(w.clk.timers, v)
	w.ensureClock()
}

// rearmTimer is armTimer for a timer already in the table (Timer.Reset).
func (w *World) rearmTimer(v *vtimer, d int64) {
	if d < 0 {
		d = 0
	}
	v.deadline = w.clk.now + d
	v.armed = true
	v.seq = w.clk.seq
	w.clk.seq++
}

// fireTimer executes one clock step: the next fireable timer fires, the
// virtual now advances to its deadline, and the effect commits under the
// clock pseudo-thread's id (so the race detector sees arm → fire → observe
// happens-before edges through the timer's channel key). Called by
// nextStep after the clock id was chosen and accounted; by construction
// there is no crash path here — fireability guarantees the delivery
// channel is open with room.
func (w *World) fireTimer() {
	v := w.clk.nextFireable()
	ct := w.clk.thread
	if v.deadline > w.clk.now {
		w.clk.now = v.deadline
	}
	w.timerPoints++
	switch v.kind {
	case timerDeadline:
		v.armed = false
		w.cancelSubtree(ct, v.ctx, CtxDeadlineExceeded)
	case timerOneShot:
		v.armed = false
		w.deliverTick(ct, v.ch)
	case timerTicker:
		w.deliverTick(ct, v.ch)
		v.deadline = w.clk.now + v.period
	}
}

// deliverTick enqueues the current virtual time into a timer's one-slot
// channel, with the same acquire-release pair a committed Send performs.
func (w *World) deliverTick(ct *Thread, c *Chan) {
	ct.sinkAcquire(c.key)
	c.buf[(c.head+c.n)%len(c.buf)] = int(w.clk.now)
	c.n++
	ct.sinkRelease(c.key)
}

// newTimerChan builds the one-slot delivery channel of a timer object.
func newTimerChan(name string) *Chan {
	return &Chan{key: "timer/" + name, buf: make([]int, 1)}
}

// Timer is a one-shot virtual timer, modelling time.Timer. Its channel
// receives the virtual firing time once the clock step fires it; when and
// whether that clock step runs relative to the program's own steps is
// explored by the scheduler, not raced against a wall clock.
type Timer struct {
	v *vtimer
}

// NewTimer arms a one-shot timer firing d virtual ticks from now. Arming
// is a visible operation (it reads the virtual now and creates the
// fireable entry the clock pseudo-thread schedules).
func (t *Thread) NewTimer(name string, d int64) *Timer {
	v := &vtimer{kind: timerOneShot, ch: newTimerChan(name)}
	t.visible(pendingOp{kind: opTimerArm, timer: v})
	t.timerArmCommit(v, d)
	return &Timer{v: v}
}

// timerArmCommit is the opTimerArm effect for one-shot timers: register
// with the clock, then release on the delivery channel (the arm
// happens-before the fire's delivery).
func (t *Thread) timerArmCommit(v *vtimer, d int64) {
	t.w.armTimer(v, d)
	t.sinkRelease(v.ch.key)
}

// tickerArmCommit is the opTimerArm effect for tickers, including the
// modelled crash on a non-positive period (checked after the visible
// point, as in the public NewTicker).
func (t *Thread) tickerArmCommit(v *vtimer) {
	if v.period < 1 {
		t.crash("non-positive period for ticker %s", v.ch.key)
	}
	t.w.armTimer(v, v.period)
	t.sinkRelease(v.ch.key)
}

// C returns the timer's delivery channel: Recv on it (or a Select case)
// blocks until the timer fires. Invisible accessor.
func (tm *Timer) C() *Chan { return tm.v.ch }

// Stop disarms the timer, reporting whether it was still armed — false
// means the timer already fired (or was stopped), and as in Go the
// delivery channel is NOT drained: a fired value stays buffered, which is
// exactly the footgun gotime.timer_stop_race_bad explores. Visible.
func (tm *Timer) Stop(t *Thread) bool {
	t.visible(pendingOp{kind: opTimerStop, timer: tm.v})
	return tm.v.stopCommit()
}

func (v *vtimer) stopCommit() bool {
	was := v.armed
	v.armed = false
	return was
}

// Reset re-arms the timer to fire d ticks from the current virtual now,
// reporting whether it was still armed before the call. Visible (it reads
// the virtual now, like NewTimer).
func (tm *Timer) Reset(t *Thread, d int64) bool {
	t.visible(pendingOp{kind: opTimerArm, timer: tm.v})
	return tm.v.resetCommit(t, d)
}

func (v *vtimer) resetCommit(t *Thread, d int64) bool {
	was := v.armed
	t.w.rearmTimer(v, d)
	return was
}

// After arms a one-shot timer and returns its delivery channel directly:
// the `case <-time.After(d):` idiom. One visible operation.
func (t *Thread) After(name string, d int64) *Chan {
	v := &vtimer{kind: timerOneShot, ch: newTimerChan(name)}
	t.visible(pendingOp{kind: opTimerArm, timer: v})
	t.timerArmCommit(v, d)
	return v.ch
}

// Sleep blocks for d virtual ticks: an After plus the receive, two visible
// operations. The sleeping thread is disabled until the clock step fires —
// "blocked until a timer fires", which deadlock detection distinguishes
// from blocked forever.
func (t *Thread) Sleep(name string, d int64) {
	ch := t.After(name, d)
	ch.Recv(t)
}

// Now returns the current virtual time. Invisible inspection helper, like
// Chan.Len: using it for cross-thread control flow makes the program
// schedule-dependent in ways footprints cannot see.
func (t *Thread) Now() int64 { return t.w.clk.now }

// Ticker is a repeating virtual timer, modelling time.Ticker. Each fire
// delivers into a one-slot channel and re-arms one period later; while the
// slot is full the ticker is not fireable (the dropped ticks of a slow
// receiver are unobservable), so a leaked ticker fires exactly once more
// and then goes quiet instead of flooding the schedule space.
type Ticker struct {
	v *vtimer
}

// NewTicker arms a repeating timer with the given period in virtual ticks.
// A period below one is a modelled crash, as in Go. Visible.
func (t *Thread) NewTicker(name string, period int64) *Ticker {
	v := &vtimer{kind: timerTicker, ch: newTimerChan(name), period: period}
	t.visible(pendingOp{kind: opTimerArm, timer: v})
	t.tickerArmCommit(v)
	return &Ticker{v: v}
}

// C returns the ticker's delivery channel. Invisible accessor.
func (tk *Ticker) C() *Chan { return tk.v.ch }

// Stop disarms the ticker. As in Go it does not close or drain the
// channel: a receiver still blocked on it after Stop is blocked forever —
// the classic leaked-ticker bug, surfacing here as a modelled deadlock.
// Visible.
func (tk *Ticker) Stop(t *Thread) {
	t.visible(pendingOp{kind: opTimerStop, timer: tk.v})
	tk.v.stopCommit()
}
