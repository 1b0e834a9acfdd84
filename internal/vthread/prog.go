package vthread

// Compiled programs: the instruction-form representation the goroutine-free
// flat engine executes (see flat.go). A Program is a closure tree the
// substrate can only run by giving every virtual thread a real goroutine to
// block in; a CompiledProgram is the same program as data — explicit object
// declarations, bodies made of instructions, and operands compiled to small
// closures over a register file — which a single goroutine can step with a
// plain function call per visible operation.
//
// # Execution protocol
//
// One interpreter (interp) per thread holds the frame stack, the integer
// registers (locals), the object registers (objs) and the thread's next
// registered operation (req). Two methods drive it:
//
//   - advance runs invisible instructions until the thread either REGISTERS
//     its next visible operation (fills req, returns true) or falls off the
//     end of its body (returns false). Registration evaluates the
//     operation's operands — exactly what a closure body evaluates before
//     calling the blocking method — and performs any registration-time side
//     effects (RWMutex.Lock's waitingWriters bump, a Select's per-call case
//     snapshot, a timer's pre-visible channel allocation).
//   - perform executes the GRANTED operation's effect via the same
//     xxxCommit helpers the closure API uses, so both engines share one
//     copy of every effect and every crash message. perform returns true
//     when the operation installed a follow-up registration into req (the
//     multi-phase ops: a condvar wait's re-acquire, a barrier's wait phase,
//     a Once body's completion marker).
//
// The flat engine maps "register" to writing Thread.pending directly and
// "grant" to calling perform from the scheduling loop; the blocking bridge
// (asProgram) maps them onto Thread.visible, which parks the goroutine — so
// a CompiledProgram also runs, bit-identically, on the reference engine.
//
// # Operand closures are pure
//
// The func(*Thread) operands, conditions and names of instructions are pure
// functions of what the interpreter holds for them: the thread's registers
// (Reg), the declared cells (Cell) and its object registers (Obj). They must
// not read or write anything else that changes between or during executions —
// a captured counter, a Go variable another closure updates — nor call a
// visible operation (Thread.visible panics on a flat thread). Two parts of
// the substrate rest on it: ProgramHash evaluates operands out of any
// execution to fingerprint them (hash.go), and an execution continued from a
// saved prefix state (Executor.RunFrom, snapshot.go) does not evaluate the
// prefix's operands again — a closure that counted its evaluations would
// count fewer than there were executions.
//
// # Equivalence contract
//
// A CompiledProgram translated op-for-op from a closure Program produces
// the identical trace, Outcome, Failure, event stream and footprints under
// every Chooser, on either engine. The translation rules that make this
// hold: every visible call becomes one instruction (IntVar.Add is a Load
// and a Store, never fused); operands and invisible statements evaluate at
// registration time in program order; effects and result-register writes
// happen at perform time.

// Runnable is the common interface of the two program representations an
// Executor can run: a closure Program (reference engine) or a
// *CompiledProgram (flat engine, with automatic fallback). The interface is
// sealed — those two types are the only implementations.
type Runnable interface{ runnable() }

func (Program) runnable()          {}
func (*CompiledProgram) runnable() {}

// AsProgram converts any Runnable to a closure Program: a Program is
// returned unchanged, a *CompiledProgram is bridged onto the blocking
// engine (trace-identical to its flat execution). This is how compiled
// programs run under a plain single-use World.
func AsProgram(r Runnable) Program {
	switch p := r.(type) {
	case Program:
		return p
	case *CompiledProgram:
		return p.asProgram()
	}
	panic("vthread: AsProgram on unknown Runnable implementation")
}

// Handles index a CompiledProgram's declared objects; they are valid only
// with the program that issued them. Reg and OReg index a thread's integer
// and object registers.
type (
	// VarH names a declared IntVar.
	VarH int
	// AtomicH names a declared Atomic.
	AtomicH int
	// ArrayH names a declared Array.
	ArrayH int
	// ChanH names a declared Chan.
	ChanH int
	// MutexH names a declared Mutex.
	MutexH int
	// RWMutexH names a declared RWMutex.
	RWMutexH int
	// CondH names a declared Cond.
	CondH int
	// SemH names a declared Sem.
	SemH int
	// BarrierH names a declared Barrier.
	BarrierH int
	// WGH names a declared WaitGroup.
	WGH int
	// OnceH names a declared Once.
	OnceH int
	// CellH names a declared invisible shared integer: the compiled
	// counterpart of a plain Go local captured by several closures (no
	// scheduling points, no events — invisible state, like any unpromoted
	// computation).
	CellH int
	// RefH names a declared object-valued shared reference (the compiled
	// counterpart of Ref[*Mutex] and friends): promotion and visibility
	// work as for IntVar, under the key "ref/<name>".
	RefH int
	// Reg is an integer register of one thread.
	Reg int
	// OReg is an object register of one thread: dynamically created
	// objects (timers, tickers, contexts, dynamic mutexes, child thread
	// handles) live here.
	OReg int
)

// nameInit is one declared object: its full footprint key (prefix applied
// at declaration, so instantiation concatenates nothing) plus an integer
// argument (initial value, capacity, parties — per kind).
type nameInit struct {
	name string // full key, e.g. "var/balance"
	arg  int
}

// fbody is one compiled thread body.
type fbody struct {
	nargs   int // integer arguments, delivered in locals[0:nargs]
	noargs  int // object arguments, delivered in objs[0:noargs]
	nlocals int
	nobjs   int
	code    *block
}

// CompiledProgram is a program in instruction form, built with a Builder.
// Bodies[0] is the initial thread's body. A CompiledProgram is immutable
// after Build and safe for concurrent executions (each run gets a fresh
// object environment); all mutable state lives in per-run progEnv and
// per-thread interp values.
type CompiledProgram struct {
	varSpecs  []nameInit
	atomSpecs []nameInit
	arrSpecs  []nameInit
	chanSpecs []nameInit
	muNames   []string
	rwNames   []string
	condNames []string
	semSpecs  []nameInit
	barSpecs  []nameInit
	wgNames   []string
	onceNames []string
	cellInit  []int
	refNames  []string
	bodies    []*fbody
}

// refObj is the runtime state of a RefH: an object-valued shared variable.
type refObj struct {
	key     string
	val     any
	visible bool
}

// progEnv is one run's object environment: every declared object,
// instantiated fresh per execution exactly as a closure body's NewVar /
// NewChan calls instantiate fresh objects per run. Objects the run creates
// join it when created, after the declared ones, for the prefix-state cache.
type progEnv struct {
	vars     []*IntVar
	atomics  []*Atomic
	arrays   []*Array
	chans    []*Chan
	mutexes  []*Mutex
	rwmus    []*RWMutex
	conds    []*Cond
	sems     []*Sem
	barriers []*Barrier
	wgs      []*WaitGroup
	onces    []*Once
	cells    []int
	refs     []*refObj
	timers   []*vtimer
	ctxs     []*Ctx
}

// newEnv instantiates the declared objects for one execution. Invisible
// (object construction emits no events and takes no scheduling points, like
// the closure constructors).
func (cp *CompiledProgram) newEnv(w *World) *progEnv {
	env := &progEnv{}
	if n := len(cp.varSpecs); n > 0 {
		env.vars = make([]*IntVar, n)
		for i, s := range cp.varSpecs {
			env.vars[i] = &IntVar{key: s.name, val: s.arg, visible: w.isVisibleVar(s.name)}
		}
	}
	if n := len(cp.atomSpecs); n > 0 {
		env.atomics = make([]*Atomic, n)
		for i, s := range cp.atomSpecs {
			env.atomics[i] = &Atomic{key: s.name, val: s.arg}
		}
	}
	if n := len(cp.arrSpecs); n > 0 {
		env.arrays = make([]*Array, n)
		for i, s := range cp.arrSpecs {
			env.arrays[i] = &Array{key: s.name, vals: make([]int, s.arg), visible: w.isVisibleVar(s.name)}
		}
	}
	if n := len(cp.chanSpecs); n > 0 {
		env.chans = make([]*Chan, n)
		for i, s := range cp.chanSpecs {
			capacity := s.arg
			if capacity < 1 {
				capacity = 1
			}
			env.chans[i] = &Chan{key: s.name, buf: make([]int, capacity)}
		}
	}
	if n := len(cp.muNames); n > 0 {
		env.mutexes = make([]*Mutex, n)
		for i, name := range cp.muNames {
			env.mutexes[i] = &Mutex{key: name}
		}
	}
	if n := len(cp.rwNames); n > 0 {
		env.rwmus = make([]*RWMutex, n)
		for i, name := range cp.rwNames {
			env.rwmus[i] = &RWMutex{key: name}
		}
	}
	if n := len(cp.condNames); n > 0 {
		env.conds = make([]*Cond, n)
		for i, name := range cp.condNames {
			env.conds[i] = &Cond{key: name}
		}
	}
	if n := len(cp.semSpecs); n > 0 {
		env.sems = make([]*Sem, n)
		for i, s := range cp.semSpecs {
			env.sems[i] = &Sem{key: s.name, count: s.arg}
		}
	}
	if n := len(cp.barSpecs); n > 0 {
		env.barriers = make([]*Barrier, n)
		for i, s := range cp.barSpecs {
			env.barriers[i] = &Barrier{key: s.name, parties: s.arg}
		}
	}
	if n := len(cp.wgNames); n > 0 {
		env.wgs = make([]*WaitGroup, n)
		for i, name := range cp.wgNames {
			env.wgs[i] = &WaitGroup{key: name}
		}
	}
	if n := len(cp.onceNames); n > 0 {
		env.onces = make([]*Once, n)
		for i, name := range cp.onceNames {
			env.onces[i] = &Once{key: name}
		}
	}
	if n := len(cp.cellInit); n > 0 {
		env.cells = make([]int, n)
		copy(env.cells, cp.cellInit)
	}
	if n := len(cp.refNames); n > 0 {
		env.refs = make([]*refObj, n)
		for i, name := range cp.refNames {
			env.refs[i] = &refObj{key: name, visible: w.isVisibleVar(name)}
		}
	}
	return env
}

// iop enumerates the instruction set. Every visible operation of the
// closure API has exactly one instruction (plus the invisible control-flow
// and register instructions), so closure bodies translate op-for-op.
type iop int

const (
	iLet     iop = iota // dst = x (invisible)
	iCellSet            // cells[h] = x (invisible)
	iIf                 // cond ? blk : blk2 (blk2 may be nil)
	iWhile              // while cond { blk }
	iBreak
	iContinue
	iReturn
	iSetName // thread display name = name (invisible)
	iYield
	iVarLoad   // dst = vars[h]           (visible iff promoted)
	iVarStore  // vars[h] = x             (visible iff promoted)
	iALoad     // dst = atomics[h]
	iAStore    // atomics[h] = x
	iAAdd      // dst = (atomics[h] += x)
	iACAS      // dst = CAS(atomics[h], x, y)
	iASwap     // dst = Swap(atomics[h], x)
	iArrGet    // dst = arrays[h][x]      (visible iff promoted)
	iArrSet    // arrays[h][x] = y        (visible iff promoted)
	iLock      // mu.Lock
	iUnlock    // mu.Unlock
	iTryLock   // dst = mu.TryLock
	iDestroy   // mu.Destroy
	iNewMutex  // objs[odst] = new dynamic mutex named name (invisible)
	iRLock     // rwmus[h].RLock
	iRUnlock   // rwmus[h].RUnlock
	iWLock     // rwmus[h].Lock
	iWUnlock   // rwmus[h].Unlock
	iCondWait  // conds[h].Wait(mutexes[h2]) — two visible phases
	iSignal    // conds[h].Signal
	iBroadcast // conds[h].Broadcast
	iSemP      // sems[h].P
	iSemV      // sems[h].V
	iArrive    // barriers[h].Arrive — one or two visible phases
	iWGAdd     // wgs[h].Add(x)
	iWGWait    // wgs[h].Wait
	iOnceDo    // onces[h].Do { blk } — entry + completion phases
	iSend      // ch.Send(x)
	iRecv      // dst, dst2 = ch.Recv
	iTrySend   // dst = ch.TrySend(x)
	iTryRecv   // dst, dst2 = ch.TryRecv
	iChClose   // ch.Close
	iSelect    // dst, dst2, dst3 = select(cases, hasDefault)
	iSpawn     // spawn specs (one visible op, like Spawn/SpawnAll)
	iJoin      // join objs[osrc].(*Thread)
	iAssert    // invisible: cond or fail(str, args)
	iFail      // invisible: fail(str, args)
	iNewTimer  // objs[odst] = NewTimer(name, x)
	iAfter     // objs[odst] = After(name, x) (the delivery channel)
	iNewTicker // objs[odst] = NewTicker(name, x)
	iTimerStop // dst = objs[osrc].Stop (dst < 0 for Ticker.Stop)
	iTimerRst  // dst = objs[osrc].(*Timer).Reset(x)
	iCtxNew    // objs[odst] = WithCancel/WithTimeout(name, objs[oparent], x)
	iCtxCancel // objs[osrc].(*Ctx).Cancel
	iRefLoad   // objs[odst] = refs[h]    (visible iff promoted)
	iRefStore  // refs[h] = objs[osrc]    (visible iff promoted)
)

// cCase is one compiled Select case.
type cCase struct {
	ch   func(*Thread) *Chan
	send bool
	val  func(*Thread) int
}

// spawnSpec is one child of a compiled spawn instruction.
type spawnSpec struct {
	body  int
	args  []func(*Thread) int
	oargs []OReg
	dst   OReg
}

// instr is one compiled instruction. The struct is wide but built once per
// program; the interpreter reads only the fields its opcode uses.
type instr struct {
	op         iop
	h, h2      int
	dst        Reg
	dst2, dst3 Reg
	odst       OReg
	osrc       OReg
	oparent    OReg
	x, y       func(*Thread) int
	cond       func(*Thread) bool
	mu         func(*Thread) *Mutex
	ch         func(*Thread) *Chan
	name       func(*Thread) string
	str        string
	args       []msgArg
	blk, blk2  *block
	cases      []cCase
	specs      []spawnSpec
	// dl flags the opcode's one boolean: a deadline context for iCtxNew
	// (WithTimeout vs WithCancel), a default case for iSelect.
	dl bool
}

// block is a straight-line instruction sequence (a body, a branch arm, a
// loop body, a Once body).
type block struct {
	code []instr
}

// frKind classifies interpreter frames.
type frKind uint8

const (
	frBlock frKind = iota // an If arm: pop and continue the parent
	frLoop                // a While body: pop and re-evaluate the condition
	frOnce                // a Once body: pop via the opOnceDone completion op
)

// frame is one entry of a thread's control stack. pc indexes the current
// instruction of blk (pointing AT it, not past it).
type frame struct {
	blk  *block
	pc   int
	kind frKind
	in   *instr // the opening iOnceDo instruction (frOnce only)
}

// interp is the per-thread interpreter state of a compiled body: the
// control stack, the register files, and the currently registered visible
// operation. One interp per Thread, recycled across executions with the
// Thread struct.
type interp struct {
	cp  *CompiledProgram
	env *progEnv

	frames []frame
	locals []int
	objs   []any

	// req points at the slot receiving registrations: advance and the
	// multi-phase perform cases write through it. The flat engine aims it
	// straight at Thread.pending (no publish copy); the blocking bridge
	// aims it at reqBuf and passes the value to Thread.visible.
	req    *pendingOp
	reqBuf pendingOp
	// val and d carry register-time evaluated operands (a send value, a
	// store value, a duration) across the register→perform boundary. One
	// visible op is in flight per thread, so single scratch slots suffice.
	val int
	d   int64
	// argv is the flat register-time argument buffer of a spawn
	// instruction, consumed by its perform in spec order.
	argv []int
}

// init prepares the interpreter to run body with the given integer and
// object arguments. Buffers are reused across executions.
func (fi *interp) init(cp *CompiledProgram, env *progEnv, body int, args []int, oargs []any) {
	fb := cp.bodies[body]
	fi.cp = cp
	fi.env = env
	if cap(fi.locals) < fb.nlocals {
		fi.locals = make([]int, fb.nlocals)
	} else {
		fi.locals = fi.locals[:fb.nlocals]
		for i := range fi.locals {
			fi.locals[i] = 0
		}
	}
	copy(fi.locals, args)
	if cap(fi.objs) < fb.nobjs {
		fi.objs = make([]any, fb.nobjs)
	} else {
		fi.objs = fi.objs[:fb.nobjs]
		for i := range fi.objs {
			fi.objs[i] = nil
		}
	}
	copy(fi.objs, oargs)
	fi.frames = fi.frames[:0]
	fi.frames = append(fi.frames, frame{blk: fb.code})
	fi.req = &fi.reqBuf
	fi.reqBuf = pendingOp{}
}

func (fi *interp) top() *frame { return &fi.frames[len(fi.frames)-1] }

func (fi *interp) push(blk *block, kind frKind, in *instr) {
	fi.frames = append(fi.frames, frame{blk: blk, kind: kind, in: in})
}

// setReg writes a result register, honouring the Reg(-1) discard
// convention.
func (fi *interp) setReg(r Reg, v int) {
	if r >= 0 {
		fi.locals[r] = v
	}
}

// advance runs invisible instructions until the thread registers its next
// visible operation (req filled, true returned) or its body ends (false).
// Registration-time evaluation order matches the closure API exactly:
// operands first (in program order), then any registration-time side
// effect, then the op itself.
func (fi *interp) advance(t *Thread) bool {
	env := fi.env
	for {
		if len(fi.frames) == 0 {
			return false
		}
		f := &fi.frames[len(fi.frames)-1]
		if f.pc >= len(f.blk.code) {
			switch f.kind {
			case frOnce:
				// The Once body ended: register the completion marker. The
				// frame pops when the marker performs (the parent pc was
				// advanced when the frame was pushed).
				*fi.req = pendingOp{kind: opOnceDone, once: env.onces[f.in.h]}
				return true
			case frLoop:
				// Loop body ended: pop back to the While, which re-evaluates.
				fi.frames = fi.frames[:len(fi.frames)-1]
			default:
				fi.frames = fi.frames[:len(fi.frames)-1]
			}
			continue
		}
		in := &f.blk.code[f.pc]
		switch in.op {

		// ----- invisible instructions: executed in place -----

		case iLet:
			fi.locals[in.dst] = in.x(t)
			f.pc++
		case iCellSet:
			env.cells[in.h] = in.x(t)
			f.pc++
		case iIf:
			f.pc++
			if in.cond(t) {
				fi.push(in.blk, frBlock, nil)
			} else if in.blk2 != nil {
				fi.push(in.blk2, frBlock, nil)
			}
		case iWhile:
			// pc stays at the While: the frLoop pop returns here to
			// re-evaluate the condition.
			if in.cond(t) {
				fi.push(in.blk, frLoop, nil)
			} else {
				f.pc++
			}
		case iBreak:
			for {
				k := fi.frames[len(fi.frames)-1].kind
				fi.frames = fi.frames[:len(fi.frames)-1]
				if k == frLoop {
					break
				}
			}
			fi.top().pc++ // step past the While
		case iContinue:
			for fi.frames[len(fi.frames)-1].kind != frLoop {
				fi.frames = fi.frames[:len(fi.frames)-1]
			}
			fi.frames = fi.frames[:len(fi.frames)-1]
			// pc of the parent still points at the While: re-evaluate.
		case iReturn:
			fi.frames = fi.frames[:0]
			return false
		case iSetName:
			t.name = in.name(t)
			f.pc++
		case iAssert:
			if in.cond(t) {
				f.pc++
				continue
			}
			fi.failMsg(t, FailAssert, in)
			return false
		case iFail:
			fi.failMsg(t, FailAssert, in)
			return false
		case iNewMutex:
			m := &Mutex{key: "mutex/" + in.name(t)}
			env.mutexes = append(env.mutexes, m)
			fi.objs[in.odst] = m
			f.pc++

		// ----- promoted-conditional accesses -----

		case iVarLoad:
			v := env.vars[in.h]
			if !v.visible {
				fi.setReg(in.dst, v.loadCommit(t))
				f.pc++
				continue
			}
			*fi.req = pendingOp{kind: opAccess, key: v.key}
			return true
		case iVarStore:
			v := env.vars[in.h]
			fi.val = in.x(t)
			if !v.visible {
				v.storeCommit(t, fi.val)
				f.pc++
				continue
			}
			*fi.req = pendingOp{kind: opAccess, key: v.key, write: true}
			return true
		case iArrGet:
			a := env.arrays[in.h]
			fi.val = in.x(t)
			if !a.visible {
				fi.setReg(in.dst, a.getCommit(t, fi.val))
				f.pc++
				continue
			}
			*fi.req = pendingOp{kind: opAccess, key: a.key}
			return true
		case iArrSet:
			a := env.arrays[in.h]
			fi.val = in.x(t)
			fi.d = int64(in.y(t))
			if !a.visible {
				a.setCommit(t, fi.val, int(fi.d))
				f.pc++
				continue
			}
			*fi.req = pendingOp{kind: opAccess, key: a.key, write: true}
			return true
		case iRefLoad:
			r := env.refs[in.h]
			if !r.visible {
				t.sinkAccess(r.key, false)
				fi.objs[in.odst] = r.val
				f.pc++
				continue
			}
			*fi.req = pendingOp{kind: opAccess, key: r.key}
			return true
		case iRefStore:
			r := env.refs[in.h]
			if !r.visible {
				t.sinkAccess(r.key, true)
				r.val = fi.objs[in.osrc]
				f.pc++
				continue
			}
			*fi.req = pendingOp{kind: opAccess, key: r.key, write: true}
			return true

		// ----- always-visible operations: register and stop -----

		case iYield:
			*fi.req = pendingOp{kind: opYield}
			return true
		case iALoad, iAStore, iAAdd, iACAS, iASwap:
			a := env.atomics[in.h]
			if in.x != nil {
				fi.val = in.x(t)
			}
			if in.y != nil {
				fi.d = int64(in.y(t))
			}
			*fi.req = pendingOp{kind: opAtomic, key: a.key}
			return true
		case iLock:
			*fi.req = pendingOp{kind: opLock, mutex: in.mu(t)}
			return true
		case iUnlock:
			*fi.req = pendingOp{kind: opUnlock, mutex: in.mu(t)}
			return true
		case iTryLock:
			m := in.mu(t)
			*fi.req = pendingOp{kind: opAtomic, mutex: m, key: m.key}
			return true
		case iDestroy:
			*fi.req = pendingOp{kind: opDestroy, mutex: in.mu(t)}
			return true
		case iRLock:
			*fi.req = pendingOp{kind: opRLock, rw: env.rwmus[in.h]}
			return true
		case iRUnlock:
			*fi.req = pendingOp{kind: opRUnlock, rw: env.rwmus[in.h]}
			return true
		case iWLock:
			l := env.rwmus[in.h]
			l.waitingWriters++ // registration-time: holds off new readers while parked
			*fi.req = pendingOp{kind: opWLock, rw: l}
			return true
		case iWUnlock:
			*fi.req = pendingOp{kind: opWUnlock, rw: env.rwmus[in.h]}
			return true
		case iCondWait:
			*fi.req = pendingOp{kind: opCondWait, cond: env.conds[in.h], mutex: env.mutexes[in.h2]}
			return true
		case iSignal:
			*fi.req = pendingOp{kind: opSignal, cond: env.conds[in.h]}
			return true
		case iBroadcast:
			*fi.req = pendingOp{kind: opBroadcast, cond: env.conds[in.h]}
			return true
		case iSemP:
			*fi.req = pendingOp{kind: opSemP, sem: env.sems[in.h]}
			return true
		case iSemV:
			*fi.req = pendingOp{kind: opSemV, sem: env.sems[in.h]}
			return true
		case iArrive:
			*fi.req = pendingOp{kind: opBarrierArrive, barrier: env.barriers[in.h]}
			return true
		case iWGAdd:
			fi.val = in.x(t)
			*fi.req = pendingOp{kind: opWGAdd, wg: env.wgs[in.h]}
			return true
		case iWGWait:
			*fi.req = pendingOp{kind: opWGWait, wg: env.wgs[in.h]}
			return true
		case iOnceDo:
			*fi.req = pendingOp{kind: opOnceDo, once: env.onces[in.h]}
			return true
		case iSend:
			c := in.ch(t)
			fi.val = in.x(t)
			*fi.req = pendingOp{kind: opChanSend, ch: c}
			return true
		case iRecv:
			*fi.req = pendingOp{kind: opChanRecv, ch: in.ch(t)}
			return true
		case iTrySend:
			c := in.ch(t)
			fi.val = in.x(t)
			*fi.req = pendingOp{kind: opChanTry, ch: c}
			return true
		case iTryRecv:
			*fi.req = pendingOp{kind: opChanTry, ch: in.ch(t)}
			return true
		case iChClose:
			*fi.req = pendingOp{kind: opChanClose, ch: in.ch(t)}
			return true
		case iSelect:
			// Per-call case snapshot, exactly like the closure Select: the
			// key slice and the selectOp are allocated per call by design
			// (retained footprints alias objs; see select.go).
			cases := make([]SelectCase, len(in.cases))
			objs := make([]string, len(in.cases))
			for i := range in.cases {
				cc := &in.cases[i]
				ch := cc.ch(t)
				cases[i] = SelectCase{Chan: ch, Send: cc.send}
				if cc.send {
					cases[i].Val = cc.val(t)
				}
				objs[i] = ch.key
			}
			sel := &selectOp{cases: cases, objs: objs, hasDefault: in.dl, pick: DefaultCase}
			*fi.req = pendingOp{kind: opSelect, sel: sel}
			return true
		case iSpawn:
			fi.argv = fi.argv[:0]
			for si := range in.specs {
				for _, af := range in.specs[si].args {
					fi.argv = append(fi.argv, af(t))
				}
			}
			*fi.req = pendingOp{kind: opSpawn}
			return true
		case iJoin:
			*fi.req = pendingOp{kind: opJoin, target: fi.objs[in.osrc].(*Thread)}
			return true
		case iNewTimer, iAfter:
			v := &vtimer{kind: timerOneShot, ch: newTimerChan(in.name(t))}
			env.timers, env.chans = append(env.timers, v), append(env.chans, v.ch)
			fi.d = int64(in.x(t))
			*fi.req = pendingOp{kind: opTimerArm, timer: v}
			return true
		case iNewTicker:
			v := &vtimer{kind: timerTicker, ch: newTimerChan(in.name(t)), period: int64(in.x(t))}
			env.timers, env.chans = append(env.timers, v), append(env.chans, v.ch)
			*fi.req = pendingOp{kind: opTimerArm, timer: v}
			return true
		case iTimerStop:
			*fi.req = pendingOp{kind: opTimerStop, timer: timerOf(fi.objs[in.osrc])}
			return true
		case iTimerRst:
			v := fi.objs[in.osrc].(*Timer).v
			fi.d = int64(in.x(t))
			*fi.req = pendingOp{kind: opTimerArm, timer: v}
			return true
		case iCtxNew:
			var parent *Ctx
			if in.oparent >= 0 {
				parent = fi.objs[in.oparent].(*Ctx)
			}
			c := newCtx(in.name(t), parent)
			env.ctxs, env.chans = append(env.ctxs, c), append(env.chans, c.done)
			if in.dl {
				c.dl = &vtimer{kind: timerDeadline, ctx: c}
				env.timers = append(env.timers, c.dl)
				fi.d = int64(in.x(t))
			} else {
				fi.d = 0
			}
			*fi.req = pendingOp{kind: opCtxNew, ctx: c}
			return true
		case iCtxCancel:
			*fi.req = pendingOp{kind: opCtxCancel, ctx: fi.objs[in.osrc].(*Ctx)}
			return true
		default:
			panic("vthread: compiled program hit unknown instruction")
		}
	}
}

// msgArg is one argument operand of an assertion message: an int operand
// (register, cell, int function), read without boxing, or any other value.
type msgArg struct {
	num func(*Thread) int
	val func(*Thread) any
}

func (a msgArg) eval(t *Thread) failArg {
	if a.num != nil {
		return failArg{n: a.num(t), isNum: true}
	}
	return failArg{v: a.val(t)}
}

// failMsg records an assertion/checker failure of a compiled body,
// mirroring Thread.Assert/Fail: the message args evaluate at failure time
// over registers and cells — pure reads, like the argument expressions of a
// closure's Assert call — into the World's failure record, and formatting is
// left to whoever keeps the failure (Failure.Clone). The values are recorded
// before the failure is, so an operand that panics is contained as that
// panic, as on the reference engine. On the flat engine failMsg retires the
// thread and returns, for advance to return false: nothing above it needs
// unwinding, and flatAdvance gives the retired thread no exit edge. On the
// blocking bridge it unwinds, as Thread.Assert does.
func (fi *interp) failMsg(t *Thread, kind FailureKind, in *instr) {
	if t.killed {
		panic(killSignal{})
	}
	if w := t.w; w.failure == nil {
		r := &w.rec
		r.args = r.args[:0]
		for _, a := range in.args {
			r.args = append(r.args, a.eval(t))
		}
		r.format = in.str
		w.record(kind, t.id)
	}
	if t.flat {
		t.state = stateExited
		return
	}
	t.unwindFailed()
}

// timerOf resolves the vtimer behind a Timer or Ticker object register.
func timerOf(o any) *vtimer {
	switch v := o.(type) {
	case *Timer:
		return v.v
	case *Ticker:
		return v.v
	}
	panic("vthread: object register does not hold a timer or ticker")
}

// chanOf resolves the channel behind an object register: a timer's or
// ticker's delivery channel, a context's done channel, a dynamic channel.
func chanOf(o any) *Chan {
	switch v := o.(type) {
	case *Chan:
		return v
	case *Timer:
		return v.v.ch
	case *Ticker:
		return v.v.ch
	case *Ctx:
		return v.done
	}
	panic("vthread: object register does not hold a channel-bearing object")
}

// perform executes the granted operation's effect through the shared
// xxxCommit helpers. It returns true when the op installed a follow-up
// registration into req (condvar re-acquire, barrier wait phase, Once
// completion); the drive loop must then publish req and have the scheduler
// grant it before calling perform again.
func (fi *interp) perform(t *Thread) bool {
	// Multi-phase follow-ups registered by an earlier perform (or, for
	// opOnceDone, by a Once body's end in advance): these carry no
	// instruction of their own.
	switch t.pending.kind {
	case opCondResume:
		t.pending.cond.resumeCommit(t, t.pending.mutex)
		fi.top().pc++
		return false
	case opBarrierWait:
		t.sinkAcquire(t.pending.barrier.key)
		fi.top().pc++
		return false
	case opOnceDone:
		t.pending.once.completeCommit(t)
		fi.frames = fi.frames[:len(fi.frames)-1]
		return false
	}

	env := fi.env
	f := fi.top()
	in := &f.blk.code[f.pc]
	switch in.op {
	case iYield:
		// A pure scheduling point: no effect.
	case iVarLoad:
		fi.setReg(in.dst, env.vars[in.h].loadCommit(t))
	case iVarStore:
		env.vars[in.h].storeCommit(t, fi.val)
	case iArrGet:
		fi.setReg(in.dst, env.arrays[in.h].getCommit(t, fi.val))
	case iArrSet:
		env.arrays[in.h].setCommit(t, fi.val, int(fi.d))
	case iRefLoad:
		r := env.refs[in.h]
		t.sinkAccess(r.key, false)
		fi.objs[in.odst] = r.val
	case iRefStore:
		r := env.refs[in.h]
		t.sinkAccess(r.key, true)
		r.val = fi.objs[in.osrc]
	case iALoad:
		a := env.atomics[in.h]
		a.syncCommit(t)
		fi.setReg(in.dst, a.val)
	case iAStore:
		a := env.atomics[in.h]
		a.syncCommit(t)
		a.val = fi.val
	case iAAdd:
		a := env.atomics[in.h]
		a.syncCommit(t)
		a.val += fi.val
		fi.setReg(in.dst, a.val)
	case iACAS:
		a := env.atomics[in.h]
		a.syncCommit(t)
		if a.val != fi.val {
			fi.setReg(in.dst, 0)
		} else {
			a.val = int(fi.d)
			fi.setReg(in.dst, 1)
		}
	case iASwap:
		a := env.atomics[in.h]
		a.syncCommit(t)
		prev := a.val
		a.val = fi.val
		fi.setReg(in.dst, prev)
	case iLock:
		t.pending.mutex.lockCommit(t)
	case iUnlock:
		t.pending.mutex.unlockCommit(t)
	case iTryLock:
		if t.pending.mutex.tryLockCommit(t) {
			fi.setReg(in.dst, 1)
		} else {
			fi.setReg(in.dst, 0)
		}
	case iDestroy:
		t.pending.mutex.destroyCommit(t)
	case iRLock:
		t.pending.rw.rlockCommit(t)
	case iRUnlock:
		t.pending.rw.runlockCommit(t)
	case iWLock:
		t.pending.rw.wlockCommit(t)
	case iWUnlock:
		t.pending.rw.wunlockCommit(t)
	case iCondWait:
		c := t.pending.cond
		m := t.pending.mutex
		c.waitCommit(t, m)
		*fi.req = pendingOp{kind: opCondResume, cond: c, mutex: m, thread: t}
		return true
	case iSignal:
		t.pending.cond.signalCommit(t)
	case iBroadcast:
		t.pending.cond.broadcastCommit(t)
	case iSemP:
		t.pending.sem.pCommit(t)
	case iSemV:
		t.pending.sem.vCommit(t)
	case iArrive:
		b := t.pending.barrier
		if last, gen := b.arriveCommit(t); !last {
			*fi.req = pendingOp{kind: opBarrierWait, barrier: b, gen: gen}
			return true
		}
	case iWGAdd:
		t.pending.wg.addCommit(t, fi.val)
	case iWGWait:
		t.sinkAcquire(t.pending.wg.key)
	case iOnceDo:
		o := t.pending.once
		f.pc++
		if o.entryCommit(t) {
			fi.push(in.blk, frOnce, in)
		}
		return false
	case iSend:
		t.pending.ch.commitSend(t, fi.val)
	case iRecv:
		v, ok := t.pending.ch.commitRecv(t)
		fi.setReg(in.dst, v)
		fi.setReg(in.dst2, boolInt(ok))
	case iTrySend:
		c := t.pending.ch
		if !c.closed && c.n == len(c.buf) {
			fi.setReg(in.dst, 0)
		} else {
			c.commitSend(t, fi.val)
			fi.setReg(in.dst, 1)
		}
	case iTryRecv:
		c := t.pending.ch
		if c.n == 0 && !c.closed {
			fi.setReg(in.dst, 0)
			fi.setReg(in.dst2, 0)
		} else {
			v, ok := c.commitRecv(t)
			fi.setReg(in.dst, v)
			fi.setReg(in.dst2, boolInt(ok))
		}
	case iChClose:
		t.pending.ch.closeCommit(t)
	case iSelect:
		idx, v, ok := t.pending.sel.commitPick(t)
		fi.setReg(in.dst, idx)
		fi.setReg(in.dst2, v)
		fi.setReg(in.dst3, boolInt(ok))
	case iSpawn:
		w := t.w
		off := 0
		for si := range in.specs {
			sp := &in.specs[si]
			childID := ThreadID(len(w.threads))
			w.ensureNames(childID)
			t.sink().spawned(t.id, childID)
			t.sinkRelease(w.keys[childID])
			args := fi.argv[off : off+len(sp.args)]
			off += len(sp.args)
			var child *Thread
			if t.flat {
				var oargs []any
				if len(sp.oargs) > 0 {
					oargs = fi.oargVals(sp.oargs)
				}
				child = w.newFlatThread(fi.cp, fi.env, sp.body, args, oargs)
			} else {
				child = w.newThread(fi.cp.blockingBody(fi.env, sp.body, cloneInts(args), fi.oargVals(sp.oargs)))
			}
			if sp.dst >= 0 {
				fi.objs[sp.dst] = child
			}
		}
	case iJoin:
		t.sinkAcquire(t.pending.target.key)
	case iNewTimer:
		v := t.pending.timer
		t.timerArmCommit(v, fi.d)
		fi.objs[in.odst] = &Timer{v: v}
	case iAfter:
		v := t.pending.timer
		t.timerArmCommit(v, fi.d)
		fi.objs[in.odst] = v.ch
	case iNewTicker:
		v := t.pending.timer
		t.tickerArmCommit(v)
		fi.objs[in.odst] = &Ticker{v: v}
	case iTimerStop:
		was := t.pending.timer.stopCommit()
		fi.setReg(in.dst, boolInt(was))
	case iTimerRst:
		was := t.pending.timer.resetCommit(t, fi.d)
		fi.setReg(in.dst, boolInt(was))
	case iCtxNew:
		c := t.pending.ctx
		t.ctxNewCommit(c, fi.d)
		fi.objs[in.odst] = c
	case iCtxCancel:
		t.w.cancelSubtree(t, t.pending.ctx, CtxCanceled)
	default:
		panic("vthread: perform on non-visible instruction")
	}
	f.pc++
	return false
}

// oargVals snapshots the parent's object registers named by oargs (nil for
// none).
func (fi *interp) oargVals(oargs []OReg) []any {
	if len(oargs) == 0 {
		return nil
	}
	out := make([]any, len(oargs))
	for i, o := range oargs {
		out[i] = fi.objs[o]
	}
	return out
}

func cloneInts(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	out := make([]int, len(s))
	copy(out, s)
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runBlocking drives a compiled body on the reference (goroutine) engine:
// every registration parks through Thread.visible exactly as a closure body
// would, so the scheduler, trace and accounting see the identical
// execution.
func runBlocking(t *Thread, fi *interp) {
	for fi.advance(t) {
		t.visible(fi.reqBuf)
		for fi.perform(t) {
			t.visible(fi.reqBuf)
		}
	}
}

// asProgram bridges the compiled program onto the reference engine: the
// initial thread builds the object environment (invisible, like a closure
// body's constructors) and interprets body 0; spawned children interpret
// their bodies through blockingBody closures.
func (cp *CompiledProgram) asProgram() Program {
	return func(t *Thread) {
		env := cp.newEnv(t.w)
		if t.fi == nil {
			t.fi = &interp{}
		}
		t.fi.init(cp, env, 0, nil, nil)
		runBlocking(t, t.fi)
	}
}

// blockingBody wraps one child body as a closure Program for the reference
// engine's Spawn path.
func (cp *CompiledProgram) blockingBody(env *progEnv, body int, args []int, oargs []any) Program {
	return func(t *Thread) {
		if t.fi == nil {
			t.fi = &interp{}
		}
		t.fi.init(cp, env, body, args, oargs)
		runBlocking(t, t.fi)
	}
}

// Reg reads an integer register of the running compiled body. Only valid
// inside operand closures of the same body (the builder's func(*Thread)
// operands).
func (t *Thread) Reg(r Reg) int { return t.fi.locals[r] }

// Cell reads a declared invisible shared integer.
func (t *Thread) Cell(c CellH) int { return t.fi.env.cells[c] }

// Obj reads an object register of the running compiled body (a *Timer,
// *Ticker, *Ctx, *Chan, *Mutex or *Thread created at run time).
func (t *Thread) Obj(o OReg) any { return t.fi.objs[o] }
