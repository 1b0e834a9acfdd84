package vthread

import "fmt"

// Program content addressing for the schedule corpus.
//
// A corpus entry must survive a benchmark rename but invalidate when the
// program's semantics change, so the key is a hash of the program itself,
// not of its registry name. Two components feed the hash:
//
//   - The structural component walks a CompiledProgram's instruction tree:
//     opcodes, object handles, register assignments, string literals, case
//     shapes, spawn specs and the declared-object environment. Operand
//     closures (func(*Thread) int and friends) cannot be inspected
//     directly, so each is probe-evaluated against a zeroed thread context
//     (registers 0, objects nil, panics recovered): a literal operand
//     yields its literal, a register operand yields its zero-state value,
//     and either way a changed literal changes the hash — even on branches
//     an execution never takes.
//   - The behavioral component executes the program a fixed number of times
//     under deterministic choosers (round-robin and one pinned random seed)
//     and hashes the resulting traces and outcomes, capturing dynamic
//     structure the static walk abstracts away.
//
// Closure Programs have no inspectable structure at all and get the
// behavioral component only. That is the documented trade-off for the
// registry's remaining closure-form fallback exerciser: its corpus entries
// invalidate on any change the canonical runs can observe (trace, failure,
// counters), and survive everything else.

// hashVersion is folded into every program hash so a change to the hashing
// scheme itself invalidates all corpus entries at once.
const hashVersion = "scthash/v1"

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// progHasher accumulates an FNV-1a/64 over a canonical byte encoding.
type progHasher struct{ h uint64 }

func newProgHasher() *progHasher {
	ph := &progHasher{h: fnvOffset64}
	ph.str(hashVersion)
	return ph
}

func (p *progHasher) byte(c byte) {
	p.h = (p.h ^ uint64(c)) * fnvPrime64
}

// num folds an integer with an unambiguous little-endian encoding.
func (p *progHasher) num(v int) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		p.byte(byte(u))
		u >>= 8
	}
}

// str folds a length-prefixed string so "ab"+"c" and "a"+"bc" differ.
func (p *progHasher) str(s string) {
	p.num(len(s))
	for i := 0; i < len(s); i++ {
		p.byte(s[i])
	}
}

func (p *progHasher) bool(b bool) {
	if b {
		p.byte(1)
	} else {
		p.byte(0)
	}
}

func (p *progHasher) specs(tag byte, specs []nameInit) {
	p.byte(tag)
	p.num(len(specs))
	for _, s := range specs {
		p.str(s.name)
		p.num(s.arg)
	}
}

func (p *progHasher) names(tag byte, names []string) {
	p.byte(tag)
	p.num(len(names))
	for _, n := range names {
		p.str(n)
	}
}

// Probe evaluation: operand closures run against a thread whose registers
// are zero and whose object slots are nil. User operands only read thread
// state (Reg/Cell/Obj), so evaluation is side-effect free; anything that
// panics on the zeroed context (a type assertion on a nil object slot,
// say) folds a panic marker instead.

func safeInt(t *Thread, f func(*Thread) int) (v int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return f(t), true
}

func (p *progHasher) probeInt(t *Thread, f func(*Thread) int) {
	if f == nil {
		p.byte(0)
		return
	}
	if v, ok := safeInt(t, f); ok {
		p.byte(1)
		p.num(v)
	} else {
		p.byte(2)
	}
}

func (p *progHasher) probeStr(t *Thread, f func(*Thread) string) {
	if f == nil {
		p.byte(0)
		return
	}
	s, ok := func() (s string, ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		return f(t), true
	}()
	if ok {
		p.byte(1)
		p.str(s)
	} else {
		p.byte(2)
	}
}

func (p *progHasher) probeBool(t *Thread, f func(*Thread) bool) {
	if f == nil {
		p.byte(0)
		return
	}
	v, ok := func() (v, ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		return f(t), true
	}()
	if ok {
		p.byte(1)
		p.bool(v)
	} else {
		p.byte(2)
	}
}

// probeKey folds the footprint key of an object-valued operand (a mutex or
// channel selector): the key identifies which declared or dynamic object
// the operand resolves to in the zeroed context.
func (p *progHasher) probeKey(t *Thread, key func(*Thread) (string, bool)) {
	if key == nil {
		p.byte(0)
		return
	}
	s, ok := func() (s string, ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		return key(t)
	}()
	if ok {
		p.byte(1)
		p.str(s)
	} else {
		p.byte(2)
	}
}

func (p *progHasher) block(t *Thread, b *block) {
	if b == nil {
		p.num(-1)
		return
	}
	p.num(len(b.code))
	for i := range b.code {
		p.instr(t, &b.code[i])
	}
}

func (p *progHasher) instr(t *Thread, in *instr) {
	p.num(int(in.op))
	p.num(in.h)
	p.num(in.h2)
	p.num(int(in.dst))
	p.num(int(in.dst2))
	p.num(int(in.dst3))
	p.num(int(in.odst))
	p.num(int(in.osrc))
	p.num(int(in.oparent))
	p.str(in.str)
	p.bool(in.dl)
	p.probeInt(t, in.x)
	p.probeInt(t, in.y)
	p.probeBool(t, in.cond)
	if in.mu == nil {
		p.probeKey(t, nil)
	} else {
		p.probeKey(t, func(t *Thread) (string, bool) {
			m := in.mu(t)
			if m == nil {
				return "", false
			}
			return m.key, true
		})
	}
	if in.ch == nil {
		p.probeKey(t, nil)
	} else {
		p.probeKey(t, func(t *Thread) (string, bool) {
			c := in.ch(t)
			if c == nil {
				return "", false
			}
			return c.key, true
		})
	}
	p.probeStr(t, in.name)
	p.num(len(in.args))
	for _, a := range in.args {
		s, ok := func() (s string, ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			return fmt.Sprintf("%v", a.eval(t).value()), true
		}()
		if ok {
			p.byte(1)
			p.str(s)
		} else {
			p.byte(2)
		}
	}
	p.num(len(in.cases))
	for _, c := range in.cases {
		p.bool(c.send)
		if c.ch == nil {
			p.probeKey(t, nil)
		} else {
			ch := c.ch
			p.probeKey(t, func(t *Thread) (string, bool) {
				cc := ch(t)
				if cc == nil {
					return "", false
				}
				return cc.key, true
			})
		}
		p.probeInt(t, c.val)
	}
	p.num(len(in.specs))
	for _, s := range in.specs {
		p.num(s.body)
		p.num(len(s.args))
		for _, a := range s.args {
			p.probeInt(t, a)
		}
		p.num(len(s.oargs))
		for _, o := range s.oargs {
			p.num(int(o))
		}
		p.num(int(s.dst))
	}
	p.block(t, in.blk)
	p.block(t, in.blk2)
}

// structural folds the full compiled form: declared objects and every body.
func (p *progHasher) structural(cp *CompiledProgram) {
	p.specs('v', cp.varSpecs)
	p.specs('a', cp.atomSpecs)
	p.specs('A', cp.arrSpecs)
	p.specs('c', cp.chanSpecs)
	p.names('m', cp.muNames)
	p.names('r', cp.rwNames)
	p.names('C', cp.condNames)
	p.specs('s', cp.semSpecs)
	p.specs('b', cp.barSpecs)
	p.names('w', cp.wgNames)
	p.names('o', cp.onceNames)
	p.byte('L')
	p.num(len(cp.cellInit))
	for _, v := range cp.cellInit {
		p.num(v)
	}
	p.names('R', cp.refNames)
	p.byte('B')
	p.num(len(cp.bodies))
	// One probe thread, re-initialised per body so operand closures see a
	// zeroed register file of the right body's shape.
	t := &Thread{fi: &interp{}}
	env := cp.newEnv(&World{})
	for bi, fb := range cp.bodies {
		p.num(fb.nargs)
		p.num(fb.noargs)
		p.num(fb.nlocals)
		p.num(fb.nobjs)
		t.fi.init(cp, env, bi, nil, nil)
		p.block(t, fb.code)
	}
}

// outcome folds one canonical execution's observable result.
func (p *progHasher) outcome(out *Outcome) {
	p.num(len(out.Trace))
	for _, id := range out.Trace {
		p.num(int(id))
	}
	p.num(out.PC)
	p.num(out.DC)
	p.num(out.SchedPoints)
	p.num(out.SelectPoints)
	p.num(out.TimerPoints)
	p.num(out.Threads)
	p.bool(out.StepLimitHit)
	if out.Failure != nil {
		p.num(int(out.Failure.Kind))
		p.num(int(out.Failure.Thread))
		p.str(out.Failure.text())
	} else {
		p.num(-1)
	}
}

// behavioralSeed pins the random chooser used for the second canonical run.
const behavioralSeed = 0x9e3779b97f4a7c15

// ProgramHash returns the stable content hash of a program as a 16-digit
// hex string. maxSteps bounds each canonical execution (0 means
// DefaultMaxSteps). Equal programs hash equal across processes and
// builds; a semantic change to instructions, declared objects, thread
// structure or canonical-run behavior changes the hash.
//
// The caller's program value is executed (twice) but not retained; like
// any Runnable handed to an Executor it must tolerate repeated runs.
func ProgramHash(r Runnable, maxSteps int) string {
	ph := newProgHasher()
	if cp, ok := r.(*CompiledProgram); ok {
		ph.byte('S')
		ph.structural(cp)
	} else {
		ph.byte('P')
	}
	// Behavioral component: every shared access visible (nil Visible) and
	// bounds checking on, for maximal sensitivity to literal changes.
	e := NewExecutor(Options{
		Chooser:     RoundRobin(),
		MaxSteps:    maxSteps,
		BoundsCheck: true,
	})
	defer e.Close()
	ph.byte('1')
	ph.outcome(e.Run(r))
	ph.byte('2')
	ph.outcome(e.RunWith(NewRandom(behavioralSeed), nil, r))
	return fmt.Sprintf("%016x", ph.h)
}
