package bench

// Builder-DSL helpers shared by the compiled suite files. Every compiled
// benchmark is an op-for-op translation of a closure program, so these
// helpers wrap only invisible constructs: counted loops whose counter lives
// in a register, handle joins, and the condition/operand closures Go's
// comparison and arithmetic expressions compile to.

import "sctbench/internal/vthread"

// loopN emits a counted loop running body n times. The counter is a
// register, so the loop overhead is invisible — exactly a plain Go
// `for i := 0; i < n; i++`.
func loopN(c *vthread.Code, n int, body func()) {
	i := c.Let(0)
	c.While(lt(i, n), func() {
		body()
		c.Set(i, plus(i, 1))
	})
}

// joinRegs joins spawned-thread handles in creation order (the compiled
// joinAll).
func joinRegs(c *vthread.Code, hs []vthread.OReg) {
	for _, h := range hs {
		c.Join(h)
	}
}

func eq(r vthread.Reg, v int) func(*vthread.Thread) bool {
	return func(t *vthread.Thread) bool { return t.Reg(r) == v }
}

func ne(r vthread.Reg, v int) func(*vthread.Thread) bool {
	return func(t *vthread.Thread) bool { return t.Reg(r) != v }
}

func lt(r vthread.Reg, v int) func(*vthread.Thread) bool {
	return func(t *vthread.Thread) bool { return t.Reg(r) < v }
}

func gt(r vthread.Reg, v int) func(*vthread.Thread) bool {
	return func(t *vthread.Thread) bool { return t.Reg(r) > v }
}

func ge(r vthread.Reg, v int) func(*vthread.Thread) bool {
	return func(t *vthread.Thread) bool { return t.Reg(r) >= v }
}

func eqr(a, b vthread.Reg) func(*vthread.Thread) bool {
	return func(t *vthread.Thread) bool { return t.Reg(a) == t.Reg(b) }
}

func ltr(a, b vthread.Reg) func(*vthread.Thread) bool {
	return func(t *vthread.Thread) bool { return t.Reg(a) < t.Reg(b) }
}

func gtr(a, b vthread.Reg) func(*vthread.Thread) bool {
	return func(t *vthread.Thread) bool { return t.Reg(a) > t.Reg(b) }
}

func plus(r vthread.Reg, d int) func(*vthread.Thread) int {
	return func(t *vthread.Thread) int { return t.Reg(r) + d }
}

func addr(a, b vthread.Reg) func(*vthread.Thread) int {
	return func(t *vthread.Thread) int { return t.Reg(a) + t.Reg(b) }
}
