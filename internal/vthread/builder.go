package vthread

// Builder constructs CompiledPrograms: declare shared objects on the
// Builder, emit instructions through per-body Code builders, then Build.
// The API is deliberately positional and Go-hosted — loops over benchmark
// parameters run at build time in plain Go, emitting unrolled instruction
// sequences — so a closure Program translates line for line:
//
//	p := vthread.NewBuilder()
//	mu := p.Mutex("m")
//	v := p.Var("v", 0)
//	worker := p.Body(0, 0)
//	worker.Lock(mu)
//	worker.AddVar(v, 1)
//	worker.Unlock(mu)
//	m := p.Main()
//	h := m.Spawn(worker)
//	m.Join(h)
//	prog := p.Build()
//
// Operand positions accept several Go types, coerced at build time into
// evaluation closures (see the coercion helpers): int literals, Reg, CellH,
// and func(*Thread) int where an integer is expected; ChanH, OReg (holding
// a *Chan, *Timer, *Ticker or *Ctx) and func(*Thread) *Chan where a channel
// is expected; MutexH, OReg and func(*Thread) *Mutex where a mutex is
// expected. Result registers use Reg(-1) ("Discard") to drop a value.

// Discard is the result-register sentinel for "drop this value".
const Discard = Reg(-1)

// Builder accumulates one CompiledProgram. Not safe for concurrent use;
// single-shot (Build may be called once).
type Builder struct {
	cp     *CompiledProgram
	bodies []*Code
	built  bool
}

// NewBuilder creates a program builder with an empty main body (retrieve it
// with Main).
func NewBuilder() *Builder {
	b := &Builder{cp: &CompiledProgram{}}
	b.Body(0, 0) // body 0 = the initial thread
	return b
}

// Main returns the initial thread's body builder.
func (b *Builder) Main() *Code { return b.bodies[0] }

// Body creates a new thread body taking nargs integer arguments (delivered
// in registers Arg(0)..Arg(nargs-1)) and noargs object arguments (object
// registers OArg(0)..OArg(noargs-1)); both are supplied by Spawn.
func (b *Builder) Body(nargs, noargs int) *Code {
	fb := &fbody{nargs: nargs, noargs: noargs, nlocals: nargs, nobjs: noargs, code: &block{}}
	c := &Code{b: b, id: len(b.bodies), fb: fb}
	c.stack = append(c.stack, fb.code)
	b.cp.bodies = append(b.cp.bodies, fb)
	b.bodies = append(b.bodies, c)
	return c
}

// Build freezes the program. The Builder must not be used afterwards.
func (b *Builder) Build() *CompiledProgram {
	if b.built {
		panic("vthread: Builder.Build called twice")
	}
	b.built = true
	for _, c := range b.bodies {
		if len(c.stack) != 1 {
			panic("vthread: Builder.Build with an unclosed block")
		}
	}
	return b.cp
}

// ----- object declarations -----

// Var declares a shared integer (IntVar) with a unique name and initial
// value.
func (b *Builder) Var(name string, init int) VarH {
	b.cp.varSpecs = append(b.cp.varSpecs, nameInit{"var/" + name, init})
	return VarH(len(b.cp.varSpecs) - 1)
}

// Atomic declares a shared atomic integer.
func (b *Builder) Atomic(name string, init int) AtomicH {
	b.cp.atomSpecs = append(b.cp.atomSpecs, nameInit{"atomic/" + name, init})
	return AtomicH(len(b.cp.atomSpecs) - 1)
}

// Array declares a shared integer array of n zeroed elements.
func (b *Builder) Array(name string, n int) ArrayH {
	b.cp.arrSpecs = append(b.cp.arrSpecs, nameInit{"array/" + name, n})
	return ArrayH(len(b.cp.arrSpecs) - 1)
}

// Chan declares a channel with the given capacity (capacity below one is
// rendezvous-like, as NewChan).
func (b *Builder) Chan(name string, capacity int) ChanH {
	b.cp.chanSpecs = append(b.cp.chanSpecs, nameInit{"chan/" + name, capacity})
	return ChanH(len(b.cp.chanSpecs) - 1)
}

// Mutex declares a mutex.
func (b *Builder) Mutex(name string) MutexH {
	b.cp.muNames = append(b.cp.muNames, "mutex/"+name)
	return MutexH(len(b.cp.muNames) - 1)
}

// RWMutex declares a reader/writer lock.
func (b *Builder) RWMutex(name string) RWMutexH {
	b.cp.rwNames = append(b.cp.rwNames, "rwmutex/"+name)
	return RWMutexH(len(b.cp.rwNames) - 1)
}

// Cond declares a condition variable.
func (b *Builder) Cond(name string) CondH {
	b.cp.condNames = append(b.cp.condNames, "cond/"+name)
	return CondH(len(b.cp.condNames) - 1)
}

// Sem declares a counting semaphore with the given initial count.
func (b *Builder) Sem(name string, count int) SemH {
	if count < 0 {
		panic("vthread: negative initial semaphore count")
	}
	b.cp.semSpecs = append(b.cp.semSpecs, nameInit{"sem/" + name, count})
	return SemH(len(b.cp.semSpecs) - 1)
}

// Barrier declares an n-party barrier.
func (b *Builder) Barrier(name string, parties int) BarrierH {
	if parties <= 0 {
		panic("vthread: barrier needs at least one party")
	}
	b.cp.barSpecs = append(b.cp.barSpecs, nameInit{"barrier/" + name, parties})
	return BarrierH(len(b.cp.barSpecs) - 1)
}

// WaitGroup declares a WaitGroup with a zero counter.
func (b *Builder) WaitGroup(name string) WGH {
	b.cp.wgNames = append(b.cp.wgNames, "wg/"+name)
	return WGH(len(b.cp.wgNames) - 1)
}

// Once declares a Once.
func (b *Builder) Once(name string) OnceH {
	b.cp.onceNames = append(b.cp.onceNames, "once/"+name)
	return OnceH(len(b.cp.onceNames) - 1)
}

// Cell declares an invisible shared integer (a plain Go local shared by
// closures, compiled).
func (b *Builder) Cell(init int) CellH {
	b.cp.cellInit = append(b.cp.cellInit, init)
	return CellH(len(b.cp.cellInit) - 1)
}

// Ref declares an object-valued shared reference (promotable under key
// "ref/<name>", like Ref[T]).
func (b *Builder) Ref(name string) RefH {
	b.cp.refNames = append(b.cp.refNames, "ref/"+name)
	return RefH(len(b.cp.refNames) - 1)
}

// ----- operand coercion -----

func intArg(x any) func(*Thread) int {
	switch v := x.(type) {
	case int:
		return func(*Thread) int { return v }
	case Reg:
		if v < 0 {
			panic("vthread: Discard used as an operand")
		}
		return func(t *Thread) int { return t.fi.locals[v] }
	case CellH:
		return func(t *Thread) int { return t.fi.env.cells[v] }
	case int64:
		return func(*Thread) int { return int(v) }
	case func(*Thread) int:
		return v
	}
	panic("vthread: operand is not an int, Reg, CellH or func(*Thread) int")
}

func condArg(x any) func(*Thread) bool {
	switch v := x.(type) {
	case bool:
		return func(*Thread) bool { return v }
	case Reg:
		return func(t *Thread) bool { return t.fi.locals[v] != 0 }
	case CellH:
		return func(t *Thread) bool { return t.fi.env.cells[v] != 0 }
	case func(*Thread) bool:
		return v
	}
	panic("vthread: condition is not a bool, Reg, CellH or func(*Thread) bool")
}

func chanArg(x any) func(*Thread) *Chan {
	switch v := x.(type) {
	case ChanH:
		return func(t *Thread) *Chan { return t.fi.env.chans[v] }
	case OReg:
		return func(t *Thread) *Chan { return chanOf(t.fi.objs[v]) }
	case func(*Thread) *Chan:
		return v
	}
	panic("vthread: operand is not a ChanH, OReg or func(*Thread) *Chan")
}

func mutexArg(x any) func(*Thread) *Mutex {
	switch v := x.(type) {
	case MutexH:
		return func(t *Thread) *Mutex { return t.fi.env.mutexes[v] }
	case OReg:
		return func(t *Thread) *Mutex { return t.fi.objs[v].(*Mutex) }
	case func(*Thread) *Mutex:
		return v
	}
	panic("vthread: operand is not a MutexH, OReg or func(*Thread) *Mutex")
}

func nameArg(x any) func(*Thread) string {
	switch v := x.(type) {
	case string:
		return func(*Thread) string { return v }
	case func(*Thread) string:
		return v
	}
	panic("vthread: name operand is not a string or func(*Thread) string")
}

func msgArgOf(x any) msgArg {
	switch v := x.(type) {
	case Reg:
		return msgArg{num: func(t *Thread) int { return t.fi.locals[v] }}
	case CellH:
		return msgArg{num: func(t *Thread) int { return t.fi.env.cells[v] }}
	case func(*Thread) int:
		return msgArg{num: v}
	case func(*Thread) any:
		return msgArg{val: v}
	}
	return msgArg{val: func(*Thread) any { return x }}
}

func msgArgs(xs []any) []msgArg {
	if len(xs) == 0 {
		return nil
	}
	out := make([]msgArg, len(xs))
	for i, x := range xs {
		out[i] = msgArgOf(x)
	}
	return out
}

// ----- body builder -----

// Code builds one thread body. Block-structured statements (If, While,
// OnceDo) take sub-builder callbacks that emit into the nested block.
type Code struct {
	b     *Builder
	id    int
	fb    *fbody
	stack []*block
	// scopes tracks the open While/OnceDo nesting for Break/Continue/Return
	// validation: a branch may not jump across a Once body (it would skip
	// the completion marker and diverge from closure semantics).
	scopes []frKind
}

func (c *Code) emit(in instr) *instr {
	blk := c.stack[len(c.stack)-1]
	blk.code = append(blk.code, in)
	return &blk.code[len(blk.code)-1]
}

func (c *Code) reg() Reg {
	r := Reg(c.fb.nlocals)
	c.fb.nlocals++
	return r
}

func (c *Code) oreg() OReg {
	o := OReg(c.fb.nobjs)
	c.fb.nobjs++
	return o
}

// Arg returns the register holding the i-th integer argument of the body.
func (c *Code) Arg(i int) Reg {
	if i < 0 || i >= c.fb.nargs {
		panic("vthread: body argument index out of range")
	}
	return Reg(i)
}

// OArg returns the object register holding the i-th object argument.
func (c *Code) OArg(i int) OReg {
	if i < 0 || i >= c.fb.noargs {
		panic("vthread: body object-argument index out of range")
	}
	return OReg(i)
}

// ----- invisible statements -----

// Let evaluates x into a fresh register (invisible).
func (c *Code) Let(x any) Reg {
	r := c.reg()
	c.emit(instr{op: iLet, dst: r, x: intArg(x)})
	return r
}

// Set re-assigns an existing register (invisible).
func (c *Code) Set(r Reg, x any) {
	if r < 0 {
		panic("vthread: Set on Discard")
	}
	c.emit(instr{op: iLet, dst: r, x: intArg(x)})
}

// SetCell writes a shared invisible cell (invisible, like the plain Go
// assignment it compiles).
func (c *Code) SetCell(cell CellH, x any) {
	c.emit(instr{op: iCellSet, h: int(cell), x: intArg(x)})
}

// SetName assigns the thread's display name (invisible).
func (c *Code) SetName(name any) {
	c.emit(instr{op: iSetName, name: nameArg(name)})
}

// If emits a conditional: then runs when cond holds.
func (c *Code) If(cond any, then func()) {
	in := c.emit(instr{op: iIf, cond: condArg(cond), blk: &block{}})
	c.stack = append(c.stack, in.blk)
	then()
	c.stack = c.stack[:len(c.stack)-1]
}

// IfElse emits a two-armed conditional.
func (c *Code) IfElse(cond any, then, els func()) {
	in := c.emit(instr{op: iIf, cond: condArg(cond), blk: &block{}, blk2: &block{}})
	c.stack = append(c.stack, in.blk)
	then()
	c.stack[len(c.stack)-1] = in.blk2
	els()
	c.stack = c.stack[:len(c.stack)-1]
}

// While emits a loop re-evaluating cond before every iteration.
func (c *Code) While(cond any, body func()) {
	in := c.emit(instr{op: iWhile, cond: condArg(cond), blk: &block{}})
	c.stack = append(c.stack, in.blk)
	c.scopes = append(c.scopes, frLoop)
	body()
	c.scopes = c.scopes[:len(c.scopes)-1]
	c.stack = c.stack[:len(c.stack)-1]
}

// Break exits the innermost While. Breaking across a OnceDo body is a
// build-time error (it would skip the Once completion).
func (c *Code) Break() {
	c.checkJump("Break")
	c.emit(instr{op: iBreak})
}

// Continue re-evaluates the innermost While's condition.
func (c *Code) Continue() {
	c.checkJump("Continue")
	c.emit(instr{op: iContinue})
}

// Return ends the body. Returning from inside a OnceDo body is a build-time
// error (it would skip the Once completion, which Go's defer-free
// once-bodies cannot do either without diverging semantics).
func (c *Code) Return() {
	for _, k := range c.scopes {
		if k == frOnce {
			panic("vthread: Return inside a OnceDo body is not supported")
		}
	}
	c.emit(instr{op: iReturn})
}

func (c *Code) checkJump(what string) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		switch c.scopes[i] {
		case frLoop:
			return
		case frOnce:
			panic("vthread: " + what + " across a OnceDo body is not supported")
		}
	}
	panic("vthread: " + what + " outside a While")
}

// Assert emits the compiled Thread.Assert: invisible, failing the execution
// when cond is false. Message args may be literals, Reg, CellH or
// func(*Thread) any/int, evaluated (purely) at failure time.
func (c *Code) Assert(cond any, format string, args ...any) {
	c.emit(instr{op: iAssert, cond: condArg(cond), str: format, args: msgArgs(args)})
}

// FailIf emits a guarded Thread.Fail: when cond holds, the execution fails
// with the formatted message.
func (c *Code) FailIf(cond any, format string, args ...any) {
	c.If(cond, func() {
		c.emit(instr{op: iFail, str: format, args: msgArgs(args)})
	})
}

// Fail emits an unconditional Thread.Fail.
func (c *Code) Fail(format string, args ...any) {
	c.emit(instr{op: iFail, str: format, args: msgArgs(args)})
}

// ----- shared-memory instructions -----

// Load reads an IntVar into a fresh register (one visible op when
// promoted).
func (c *Code) Load(v VarH) Reg {
	r := c.reg()
	c.emit(instr{op: iVarLoad, h: int(v), dst: r})
	return r
}

// Store writes an IntVar (one visible op when promoted).
func (c *Code) Store(v VarH, x any) {
	c.emit(instr{op: iVarStore, h: int(v), x: intArg(x)})
}

// AddVar compiles IntVar.Add: a Load, an invisible add, a Store — two
// scheduling points when promoted, exactly the closure API's lost-update
// shape. Returns the register holding the stored value.
func (c *Code) AddVar(v VarH, delta any) Reg {
	x := c.Load(v)
	df := intArg(delta)
	sum := c.Let(func(t *Thread) int { return t.fi.locals[x] + df(t) })
	c.Store(v, sum)
	return sum
}

// LoadA reads an Atomic (always one visible op).
func (c *Code) LoadA(a AtomicH) Reg {
	r := c.reg()
	c.emit(instr{op: iALoad, h: int(a), dst: r})
	return r
}

// StoreA writes an Atomic.
func (c *Code) StoreA(a AtomicH, x any) {
	c.emit(instr{op: iAStore, h: int(a), x: intArg(x)})
}

// AddA compiles Atomic.Add, returning the new value's register.
func (c *Code) AddA(a AtomicH, delta any) Reg {
	r := c.reg()
	c.emit(instr{op: iAAdd, h: int(a), x: intArg(delta), dst: r})
	return r
}

// CAS compiles Atomic.CAS, returning a 0/1 register.
func (c *Code) CAS(a AtomicH, old, new any) Reg {
	r := c.reg()
	c.emit(instr{op: iACAS, h: int(a), x: intArg(old), y: intArg(new), dst: r})
	return r
}

// SwapA compiles Atomic.Swap, returning the previous value's register.
func (c *Code) SwapA(a AtomicH, x any) Reg {
	r := c.reg()
	c.emit(instr{op: iASwap, h: int(a), x: intArg(x), dst: r})
	return r
}

// Get reads arrays[h][i] (one visible op when promoted).
func (c *Code) Get(a ArrayH, i any) Reg {
	r := c.reg()
	c.emit(instr{op: iArrGet, h: int(a), x: intArg(i), dst: r})
	return r
}

// SetAt writes arrays[h][i] = x (one visible op when promoted).
func (c *Code) SetAt(a ArrayH, i, x any) {
	c.emit(instr{op: iArrSet, h: int(a), x: intArg(i), y: intArg(x)})
}

// RefLoad reads an object reference into a fresh object register.
func (c *Code) RefLoad(ref RefH) OReg {
	o := c.oreg()
	c.emit(instr{op: iRefLoad, h: int(ref), odst: o})
	return o
}

// RefStore writes an object register into an object reference.
func (c *Code) RefStore(ref RefH, o OReg) {
	c.emit(instr{op: iRefStore, h: int(ref), osrc: o})
}

// ----- synchronisation instructions -----

// Lock compiles Mutex.Lock. mu may be a MutexH, an OReg holding a dynamic
// mutex, or a func(*Thread) *Mutex.
func (c *Code) Lock(mu any) { c.emit(instr{op: iLock, mu: mutexArg(mu)}) }

// Unlock compiles Mutex.Unlock.
func (c *Code) Unlock(mu any) { c.emit(instr{op: iUnlock, mu: mutexArg(mu)}) }

// TryLock compiles Mutex.TryLock, returning a 0/1 register.
func (c *Code) TryLock(mu any) Reg {
	r := c.reg()
	c.emit(instr{op: iTryLock, mu: mutexArg(mu), dst: r})
	return r
}

// DestroyMutex compiles Mutex.Destroy.
func (c *Code) DestroyMutex(mu any) { c.emit(instr{op: iDestroy, mu: mutexArg(mu)}) }

// NewMutex creates a dynamic mutex at run time (invisible, like
// Thread.NewMutex), stored in a fresh object register.
func (c *Code) NewMutex(name any) OReg {
	o := c.oreg()
	c.emit(instr{op: iNewMutex, name: nameArg(name), odst: o})
	return o
}

// RLock compiles RWMutex.RLock.
func (c *Code) RLock(l RWMutexH) { c.emit(instr{op: iRLock, h: int(l)}) }

// RUnlock compiles RWMutex.RUnlock.
func (c *Code) RUnlock(l RWMutexH) { c.emit(instr{op: iRUnlock, h: int(l)}) }

// WLock compiles RWMutex.Lock (exclusive).
func (c *Code) WLock(l RWMutexH) { c.emit(instr{op: iWLock, h: int(l)}) }

// WUnlock compiles RWMutex.Unlock.
func (c *Code) WUnlock(l RWMutexH) { c.emit(instr{op: iWUnlock, h: int(l)}) }

// Wait compiles Cond.Wait (two visible phases: the wait and the
// re-acquisition).
func (c *Code) Wait(cv CondH, mu MutexH) {
	c.emit(instr{op: iCondWait, h: int(cv), h2: int(mu)})
}

// Signal compiles Cond.Signal.
func (c *Code) Signal(cv CondH) { c.emit(instr{op: iSignal, h: int(cv)}) }

// Broadcast compiles Cond.Broadcast.
func (c *Code) Broadcast(cv CondH) { c.emit(instr{op: iBroadcast, h: int(cv)}) }

// P compiles Sem.P.
func (c *Code) P(s SemH) { c.emit(instr{op: iSemP, h: int(s)}) }

// V compiles Sem.V.
func (c *Code) V(s SemH) { c.emit(instr{op: iSemV, h: int(s)}) }

// Arrive compiles Barrier.Arrive.
func (c *Code) Arrive(bar BarrierH) { c.emit(instr{op: iArrive, h: int(bar)}) }

// WGAdd compiles WaitGroup.Add.
func (c *Code) WGAdd(g WGH, delta any) { c.emit(instr{op: iWGAdd, h: int(g), x: intArg(delta)}) }

// WGDone compiles WaitGroup.Done.
func (c *Code) WGDone(g WGH) { c.WGAdd(g, -1) }

// WGWait compiles WaitGroup.Wait.
func (c *Code) WGWait(g WGH) { c.emit(instr{op: iWGWait, h: int(g)}) }

// OnceDo compiles Once.Do: the body block runs under the Once's entry and
// completion markers.
func (c *Code) OnceDo(o OnceH, body func()) {
	in := c.emit(instr{op: iOnceDo, h: int(o), blk: &block{}})
	c.stack = append(c.stack, in.blk)
	c.scopes = append(c.scopes, frOnce)
	body()
	c.scopes = c.scopes[:len(c.scopes)-1]
	c.stack = c.stack[:len(c.stack)-1]
}

// Yield compiles Thread.Yield: a pure scheduling point.
func (c *Code) Yield() { c.emit(instr{op: iYield}) }

// ----- channel instructions -----

// Send compiles Chan.Send. ch may be a ChanH, an OReg (a dynamic channel, a
// timer/ticker delivery channel, or a context's done channel) or a
// func(*Thread) *Chan.
func (c *Code) Send(ch any, v any) {
	c.emit(instr{op: iSend, ch: chanArg(ch), x: intArg(v)})
}

// Recv compiles Chan.Recv, returning the value and ok (0/1) registers.
func (c *Code) Recv(ch any) (v, ok Reg) {
	v, ok = c.reg(), c.reg()
	c.emit(instr{op: iRecv, ch: chanArg(ch), dst: v, dst2: ok})
	return v, ok
}

// TrySend compiles Chan.TrySend, returning a 0/1 register.
func (c *Code) TrySend(ch any, v any) Reg {
	r := c.reg()
	c.emit(instr{op: iTrySend, ch: chanArg(ch), x: intArg(v), dst: r})
	return r
}

// TryRecv compiles Chan.TryRecv.
func (c *Code) TryRecv(ch any) (v, ok Reg) {
	v, ok = c.reg(), c.reg()
	c.emit(instr{op: iTryRecv, ch: chanArg(ch), dst: v, dst2: ok})
	return v, ok
}

// CloseChan compiles Chan.Close.
func (c *Code) CloseChan(ch any) { c.emit(instr{op: iChClose, ch: chanArg(ch)}) }

// SCase is one case of a compiled Select: a receive from (or send of Val
// to) Ch, which may be a ChanH, OReg or func(*Thread) *Chan.
type SCase struct {
	Ch   any
	Send bool
	Val  any
}

// RecvC builds a receive case.
func RecvC(ch any) SCase { return SCase{Ch: ch} }

// SendC builds a send case.
func SendC(ch any, v any) SCase { return SCase{Ch: ch, Send: true, Val: v} }

// Select compiles Thread.Select: one visible op over every member channel,
// plus a case-decision scheduling point when several cases are ready at the
// grant. Returns the chosen index, received value and ok registers.
func (c *Code) Select(cases []SCase, hasDefault bool) (idx, v, ok Reg) {
	cc := make([]cCase, len(cases))
	for i, sc := range cases {
		cc[i] = cCase{ch: chanArg(sc.Ch), send: sc.Send}
		if sc.Send {
			cc[i].val = intArg(sc.Val)
		}
	}
	idx, v, ok = c.reg(), c.reg(), c.reg()
	c.emit(instr{op: iSelect, cases: cc, dl: hasDefault, dst: idx, dst2: v, dst3: ok})
	return idx, v, ok
}

// Select2 is the two-case convenience wrapper, like Thread.Select2.
func (c *Code) Select2(a, b SCase) (idx, v, ok Reg) {
	return c.Select([]SCase{a, b}, false)
}

// ----- thread instructions -----

// SpawnArgs describes one child of a SpawnAll.
type SpawnArgs struct {
	Child *Code
	// Args holds the child's integer arguments (int, Reg, CellH or
	// func(*Thread) int) followed by / mixed with its object arguments
	// (OReg); they are split by type and must match the child's declared
	// counts.
	Args []any
}

// Spawn compiles Thread.Spawn: one visible op creating one child running
// the given body, returning an object register holding the child's handle
// (for Join). Args supplies the child's integer arguments (evaluated at the
// spawn's registration, in order) and object arguments (OReg values,
// snapshotted at the spawn's commit).
func (c *Code) Spawn(child *Code, args ...any) OReg {
	h := c.oreg()
	c.emit(instr{op: iSpawn, specs: []spawnSpec{c.spec(child, args, h)}})
	return h
}

// SpawnAll compiles Thread.SpawnAll: several children created in one
// visible operation, returning their handles in order.
func (c *Code) SpawnAll(children ...SpawnArgs) []OReg {
	specs := make([]spawnSpec, len(children))
	out := make([]OReg, len(children))
	for i, sa := range children {
		out[i] = c.oreg()
		specs[i] = c.spec(sa.Child, sa.Args, out[i])
	}
	c.emit(instr{op: iSpawn, specs: specs})
	return out
}

func (c *Code) spec(child *Code, args []any, dst OReg) spawnSpec {
	if child.b != c.b {
		panic("vthread: Spawn of a body from a different Builder")
	}
	sp := spawnSpec{body: child.id, dst: dst}
	for _, a := range args {
		if o, isObj := a.(OReg); isObj {
			sp.oargs = append(sp.oargs, o)
		} else {
			sp.args = append(sp.args, intArg(a))
		}
	}
	if len(sp.args) != child.fb.nargs {
		panic("vthread: Spawn integer-argument count mismatch")
	}
	if len(sp.oargs) != child.fb.noargs {
		panic("vthread: Spawn object-argument count mismatch")
	}
	return sp
}

// Join compiles Thread.Join on a handle returned by Spawn.
func (c *Code) Join(h OReg) { c.emit(instr{op: iJoin, osrc: h}) }

// ----- timer and context instructions -----

// NewTimer compiles Thread.NewTimer, returning an object register holding
// the *Timer (pass it to Recv/Select for its channel, TimerStop,
// TimerReset).
func (c *Code) NewTimer(name any, d any) OReg {
	o := c.oreg()
	c.emit(instr{op: iNewTimer, name: nameArg(name), x: intArg(d), odst: o})
	return o
}

// After compiles Thread.After, returning an object register holding the
// delivery channel.
func (c *Code) After(name any, d any) OReg {
	o := c.oreg()
	c.emit(instr{op: iAfter, name: nameArg(name), x: intArg(d), odst: o})
	return o
}

// Sleep compiles Thread.Sleep: an After plus the receive (two visible
// operations).
func (c *Code) Sleep(name any, d any) {
	ch := c.After(name, d)
	c.Recv(ch)
}

// NewTicker compiles Thread.NewTicker, returning an object register holding
// the *Ticker.
func (c *Code) NewTicker(name any, period any) OReg {
	o := c.oreg()
	c.emit(instr{op: iNewTicker, name: nameArg(name), x: intArg(period), odst: o})
	return o
}

// TimerStop compiles Timer.Stop, returning the was-armed 0/1 register.
func (c *Code) TimerStop(tm OReg) Reg {
	r := c.reg()
	c.emit(instr{op: iTimerStop, osrc: tm, dst: r})
	return r
}

// TickerStop compiles Ticker.Stop.
func (c *Code) TickerStop(tk OReg) {
	c.emit(instr{op: iTimerStop, osrc: tk, dst: Discard})
}

// TimerReset compiles Timer.Reset, returning the was-armed 0/1 register.
func (c *Code) TimerReset(tm OReg, d any) Reg {
	r := c.reg()
	c.emit(instr{op: iTimerRst, osrc: tm, x: intArg(d), dst: r})
	return r
}

// NoCtx is the parent argument of a root context.
const NoCtx = OReg(-1)

// WithCancel compiles Thread.WithCancel. parent is an OReg holding the
// parent *Ctx, or vthread.NoCtx for a root context.
func (c *Code) WithCancel(name any, parent OReg) OReg {
	o := c.oreg()
	c.emit(instr{op: iCtxNew, name: nameArg(name), oparent: parent, odst: o})
	return o
}

// WithTimeout compiles Thread.WithTimeout.
func (c *Code) WithTimeout(name any, parent OReg, d any) OReg {
	o := c.oreg()
	c.emit(instr{op: iCtxNew, name: nameArg(name), oparent: parent, x: intArg(d), odst: o, dl: true})
	return o
}

// CtxCancel compiles Ctx.Cancel.
func (c *Code) CtxCancel(ctx OReg) { c.emit(instr{op: iCtxCancel, osrc: ctx}) }
