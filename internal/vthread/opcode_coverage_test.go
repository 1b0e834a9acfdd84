package vthread_test

import (
	"testing"

	"sctbench/internal/bench"
	"sctbench/internal/vthread"
)

// TestRegistryOpcodesCovered is what lets the registry keep only a few
// closure twins. Every instruction kind any registry program uses must be
// used by a kept twin's compiled program, which internal/bench's
// TestCompiledMatchesReference runs against the hand-written closure, or by
// a genCompiled shape, which TestFlatMatchesReferenceOnGenerated runs
// against genProgram. The AsProgram bridge shares the flat interpreter, so
// it cannot stand in for either: it would agree with a wrong instruction.
func TestRegistryOpcodesCovered(t *testing.T) {
	// 256 shapes take every arm of genCompiled's op switch many times over.
	covered := vthread.GeneratedOpcodes(256)
	for _, b := range bench.All() {
		if b.Ref != nil {
			for op := range vthread.Opcodes(b.New().(*vthread.CompiledProgram)) {
				covered[op] = true
			}
		}
	}
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
		t.Errorf("%v is used by %v, but by no kept Ref twin and no generated shape", op, names)
	}
}
