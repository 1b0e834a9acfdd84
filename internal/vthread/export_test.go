package vthread

import "fmt"

// Opcode is one instruction kind the flat interpreter dispatches: an opcode
// of the iop list (prog.go) with its one flag (instr.dl: a select's default
// case, a context's deadline).
type Opcode struct {
	Op int
	DL bool
}

func (o Opcode) String() string { return fmt.Sprintf("iop %d (dl=%v)", o.Op, o.DL) }

// Opcodes returns the instruction kinds cp's bodies use, nested blocks (If
// arms, While and Once bodies) included. Exported to the external test
// package, whose registry coverage guard cannot reach the instructions.
func Opcodes(cp *CompiledProgram) map[Opcode]bool {
	out := make(map[Opcode]bool)
	var walk func(b *block)
	walk = func(b *block) {
		if b == nil {
			return
		}
		for i := range b.code {
			in := &b.code[i]
			out[Opcode{int(in.op), in.dl}] = true
			walk(in.blk)
			walk(in.blk2)
		}
	}
	for _, fb := range cp.bodies {
		walk(fb.code)
	}
	return out
}

// GeneratedOpcodes is Opcodes over the fixed generated shapes: the
// instruction kinds TestFlatMatchesReferenceOnGenerated compares with
// hand-written closure code (genProgram) in every run.
func GeneratedOpcodes() map[Opcode]bool {
	out := make(map[Opcode]bool)
	for shape := uint32(0); shape < generatedShapes; shape++ {
		for op := range Opcodes(genCompiled(shape)) {
			out[op] = true
		}
	}
	return out
}
