package vthread_test

import (
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/vthread"
)

// TestRegistryOpcodesCovered is what lets the registry carry no per-program
// closure twins. Every instruction kind any registry program uses must be
// used by a shape of the fixed generated sweep, which
// TestFlatMatchesReferenceOnGenerated compares, in every run, with the
// hand-written closure original (genProgram). The AsProgram bridge shares
// the flat interpreter, so it cannot stand in for that comparison: it would
// agree with a wrong instruction.
func TestRegistryOpcodesCovered(t *testing.T) {
	covered := vthread.GeneratedOpcodes()
	uncovered := make(map[vthread.Opcode][]string)
	for _, b := range bench.All() {
		cp, ok := b.New().(*vthread.CompiledProgram)
		if !ok {
			continue
		}
		for op := range vthread.Opcodes(cp) {
			if !covered[op] {
				uncovered[op] = append(uncovered[op], b.Name)
			}
		}
	}
	for op, names := range uncovered {
		t.Errorf("%v is used by %v, but by no generated shape", op, names)
	}
}
