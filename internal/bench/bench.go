// Package bench is the benchmark registry: 64 programs. Ids 0–51 are the
// 52 SCTBench programs of the study, re-implemented against the vthread
// substrate as behaviourally faithful analogues of the original pthread
// benchmarks: same thread structure, same synchronisation skeleton, same
// planted bug class, and — the property the study actually measures — the
// same qualitative difficulty for each exploration technique (which
// technique finds the bug, at what bound, and roughly how hard it is for
// random scheduling). Ids 52–63 are the GoIdiom and GoTime families
// (goidiom.go, gotime.go), which extend the registry past the paper's rows.
//
// Substitutions relative to the originals are documented per suite in the
// suite files and summarised in DESIGN.md §1/§7.
package bench

import (
	"fmt"
	"sort"
	"sync"

	"sctbench/internal/vthread"
)

// Benchmark is one SCTBench entry.
type Benchmark struct {
	// ID is the Table 3 row id (0–51 for the paper's programs, 52+ for the
	// GoIdiom and GoTime families).
	ID int
	// Name is the Table 3 name, e.g. "CS.account_bad".
	Name string
	// Suite is the benchmark-suite name of Table 1.
	Suite string
	// Threads is the nominal thread count (Table 3 "# threads").
	Threads int
	// BugKind classifies the planted bug.
	BugKind vthread.FailureKind
	// Desc summarises the bug in one line.
	Desc string
	// BoundsCheck enables the modelled out-of-bounds detector for this
	// benchmark (§4.2: manual assertions were added where the paper needed
	// them; the two OOB benchmarks use the checker directly).
	BoundsCheck bool
	// MaxSteps overrides the per-execution step budget (0 = default).
	MaxSteps int
	// New builds a fresh instance of the program. The returned Runnable
	// creates all its state inside the body (compiled programs instantiate
	// their environment per run), so one value can be executed any number
	// of times — including concurrently from the parallel exploration
	// driver's workers. Compiled-form benchmarks run on the flat engine;
	// closure-form ones run on the goroutine reference engine.
	New func() vthread.Runnable
	// Ref, when non-nil, builds a hand-written closure-form twin of New's
	// compiled program; the registry test executes both under identical
	// choosers and requires bit-identical outcomes, failures and event
	// streams. Only CS.account_bad carries one: it is the goroutine-engine
	// sample of the executor benchmarks and of the ledger's
	// vthread.step_ns.ref probe. Instruction semantics need no per-program
	// twin: the generated closure/compiled pair of internal/vthread's tests
	// uses every instruction any registry program uses, which vthread_test's
	// TestRegistryOpcodesCovered guards.
	Ref func() vthread.Program

	hashOnce sync.Once
	hash     string
}

// String returns "id name".
func (b *Benchmark) String() string { return fmt.Sprintf("%02d %s", b.ID, b.Name) }

// Hash returns the benchmark's program content hash (vthread.ProgramHash
// of a fresh New() instance), the key under which the schedule corpus
// stores its witnesses and prefixes. Computed once per process and cached;
// stable across processes and across benchmark renames, changed by any
// semantic edit to the program.
func (b *Benchmark) Hash() string {
	b.hashOnce.Do(func() {
		b.hash = vthread.ProgramHash(b.New(), b.MaxSteps)
	})
	return b.hash
}

var registry []*Benchmark

// register adds a benchmark at package init; duplicate ids or names panic,
// since the table layout of the study depends on both being unique.
func register(b *Benchmark) {
	for _, o := range registry {
		if o.ID == b.ID {
			panic(fmt.Sprintf("bench: duplicate id %d (%s, %s)", b.ID, o.Name, b.Name))
		}
		if o.Name == b.Name {
			panic("bench: duplicate name " + b.Name)
		}
	}
	registry = append(registry, b)
}

// All returns every registered benchmark (all 64) sorted by Table 3 id.
func All() []*Benchmark {
	out := make([]*Benchmark, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByName returns the named benchmark, or nil.
func ByName(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}
