package vthread

// opKind enumerates the visible-operation kinds of the substrate. The set
// mirrors the pthread surface that the paper's benchmarks use — thread
// management, mutexes, condition variables, semaphores, barriers, shared
// memory accesses and atomics — plus the Go-idiom surface (first-class
// channels, multi-way select, WaitGroup, Once) that opens the goidiom
// workload family.
type opKind int

const (
	opSpawn opKind = iota
	opJoin
	opYield
	opLock
	opUnlock
	opCondWait   // release mutex + enqueue on the condvar
	opCondResume // woken waiter re-acquiring the mutex
	opSignal
	opBroadcast
	opSemP
	opSemV
	opBarrierArrive
	opBarrierWait // parked inside the barrier until the generation advances
	opAccess      // promoted (racy) shared-memory access
	opAtomic
	opDestroy
	opRLock
	opRUnlock
	opWLock
	opWUnlock
	opChanSend  // blocking channel send: disabled while the channel is full
	opChanRecv  // blocking channel receive: disabled while empty and open
	opChanTry   // non-blocking TrySend/TryRecv: always executable
	opChanClose // channel close: always executable (double close crashes)
	opSelect    // multi-way select: enabled when any case is ready (or default)
	opWGAdd     // WaitGroup Add/Done: always executable (negative count crashes)
	opWGWait    // WaitGroup Wait: disabled while the counter is positive
	opOnceDo    // Once entry: disabled while another thread is inside the Once
	opOnceDone  // Once completion marker: always executable
	opTimerArm  // NewTimer/After/NewTicker/Reset: always executable, reads the virtual now
	opTimerStop // Timer.Stop/Ticker.Stop: always executable
	opTimerFire // the clock pseudo-thread's step: enabled while a timer can fire
	opCtxNew    // WithCancel/WithTimeout: always executable
	opCtxCancel // Ctx.Cancel: always executable (cancellation is idempotent)
)

// pendingOp is the visible operation a parked thread will perform when next
// scheduled. Enabledness (§2) is a predicate of the pending operation over
// the current state of its target object.
type pendingOp struct {
	kind    opKind
	mutex   *Mutex
	cond    *Cond
	sem     *Sem
	barrier *Barrier
	target  *Thread
	thread  *Thread // owner of this op; set for ops whose enabledness is per-thread
	rw      *RWMutex
	ch      *Chan
	wg      *WaitGroup
	once    *Once
	sel     *selectOp
	timer   *vtimer // timer arm/stop target
	ctx     *Ctx    // context create/cancel target
	gen     uint64  // barrier generation observed on arrival
	key     string  // accessed variable key (opAccess only)
	write   bool    // store vs load (opAccess only)
}

// enabled reports whether the operation can execute in the current state
// (on), and whether that answer depends on the state of the operation's
// target object at all (conditional). An unconditional operation is
// executable for as long as its thread is parked at it, so the World asks
// once; a conditional one is asked again at every scheduling point
// (World.syncEnabled). One switch answers both so that the two cannot drift
// apart. Operations that would immediately fault (locking a destroyed mutex,
// double unlock, sending on a closed channel, …) are enabled so that the
// crash can manifest — a disabled crash would silently mask the bug.
func (op *pendingOp) enabled(w *World) (on, conditional bool) {
	switch op.kind {
	case opLock:
		return op.mutex.owner == nil || op.mutex.destroyed, true
	case opCondResume:
		return op.thread.woken && (op.mutex.owner == nil || op.mutex.destroyed), true
	case opSemP:
		return op.sem.count > 0, true
	case opJoin:
		return op.target.state == stateExited, true
	case opBarrierWait:
		return op.barrier.gen != op.gen, true
	case opRLock:
		// Shared acquisition: blocked by a writer or (writer preference) a
		// waiting writer.
		return op.rw.writer == nil && op.rw.waitingWriters == 0, true
	case opWLock:
		return op.rw.writer == nil && op.rw.readers == 0, true
	case opChanSend:
		// A send on a closed channel is enabled so the crash can manifest.
		return op.ch.sendReady(), true
	case opChanRecv:
		return op.ch.recvReady(), true
	case opSelect:
		if op.sel.hasDefault {
			return true, false // the default makes it executable in any state
		}
		for i := range op.sel.cases {
			if op.sel.cases[i].ready() {
				return true, true
			}
		}
		return false, true
	case opWGWait:
		return op.wg.count == 0, true
	case opOnceDo:
		// Disabled while another thread is between the Once's entry and its
		// completion marker — exactly Go's "Do blocks until f returns"
		// semantics, including the reentrant-Do self-deadlock.
		return !op.once.started || op.once.done, true
	case opTimerFire:
		// The clock pseudo-thread: schedulable while some timer can fire
		// and some program thread is live to observe it.
		return w.clockEnabled(), true
	default:
		// opSpawn, opYield, opUnlock, opCondWait, opSignal,
		// opBroadcast, opSemV, opBarrierArrive, opAccess, opAtomic,
		// opDestroy, opChanTry, opChanClose, opWGAdd, opOnceDone,
		// opTimerArm, opTimerStop, opCtxNew, opCtxCancel are always
		// executable: they never block (opChanTry reports failure instead,
		// opCondWait only releases and enqueues — the blocking half of a
		// condvar wait is its opCondResume).
		return true, false
	}
}

func (k opKind) String() string {
	switch k {
	case opSpawn:
		return "spawn"
	case opJoin:
		return "join"
	case opYield:
		return "yield"
	case opLock:
		return "lock"
	case opUnlock:
		return "unlock"
	case opCondWait:
		return "cond-wait"
	case opCondResume:
		return "cond-resume"
	case opSignal:
		return "signal"
	case opBroadcast:
		return "broadcast"
	case opSemP:
		return "sem-P"
	case opSemV:
		return "sem-V"
	case opBarrierArrive:
		return "barrier-arrive"
	case opBarrierWait:
		return "barrier-wait"
	case opAccess:
		return "access"
	case opAtomic:
		return "atomic"
	case opDestroy:
		return "destroy"
	case opRLock:
		return "rlock"
	case opRUnlock:
		return "runlock"
	case opWLock:
		return "wlock"
	case opWUnlock:
		return "wunlock"
	case opChanSend:
		return "chan-send"
	case opChanRecv:
		return "chan-recv"
	case opChanTry:
		return "chan-try"
	case opChanClose:
		return "chan-close"
	case opSelect:
		return "select"
	case opWGAdd:
		return "wg-add"
	case opWGWait:
		return "wg-wait"
	case opOnceDo:
		return "once-do"
	case opOnceDone:
		return "once-done"
	case opTimerArm:
		return "timer-arm"
	case opTimerStop:
		return "timer-stop"
	case opTimerFire:
		return "timer-fire"
	case opCtxNew:
		return "ctx-new"
	case opCtxCancel:
		return "ctx-cancel"
	}
	return "unknown"
}
