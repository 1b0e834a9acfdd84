package vthread

import "fmt"

// FailureKind classifies the bug classes of the study (§5: "Bugs are
// deadlocks, crashes or assertion failures (including those that identify
// incorrect output)").
type FailureKind int

const (
	// FailAssert is an assertion failure, including output-checker failures.
	FailAssert FailureKind = iota
	// FailDeadlock is a global deadlock: no thread enabled, some blocked.
	FailDeadlock
	// FailCrash is a modelled memory-safety crash: double unlock, use of a
	// destroyed object, out-of-bounds access with checking enabled.
	FailCrash
	// FailPanic is a Go panic escaping a program body (closure or
	// compiled-instruction operand): recovered by the engine, reported as a
	// found bug with the trace intact, and replayable like any other
	// failure. Panics in the substrate or a Chooser are NOT converted —
	// those crash loudly, as implementation bugs should.
	FailPanic
)

// String returns the human-readable kind.
func (k FailureKind) String() string {
	switch k {
	case FailAssert:
		return "assertion"
	case FailDeadlock:
		return "deadlock"
	case FailCrash:
		return "crash"
	case FailPanic:
		return "panic"
	}
	return "unknown"
}

// Failure describes a bug exposed by an execution.
//
// The Failure of an Executor's Outcome belongs to the Executor, like the
// Outcome's Trace: it is valid until the next run, and a caller that keeps
// it must Clone it. A failed compiled assertion and a deadlock are not even
// formatted there: the World records what the message is made of (a record
// its next run reuses), Message is empty, and Error and Clone format it. A
// Failure from World.Run or Clone is formatted and owned.
type Failure struct {
	// Kind classifies the failure.
	Kind FailureKind
	// Thread is the thread that triggered the failure (for deadlocks, the
	// lowest-id blocked thread).
	Thread ThreadID
	// Message is a human-readable description from the failing check; empty
	// while the failure is an Executor's unformatted record.
	Message string
	// rec, non-nil only on an unformatted record, is what Message is
	// formatted from.
	rec *failRecord
}

// failRecord is what the World writes instead of formatting a failure
// message: for a failed compiled assertion its format and the values of its
// argument operands, for a deadlock the blocked threads and the armed timers
// that can no longer fire. Its buffers belong to the World and are rewritten
// by the next failing run.
type failRecord struct {
	format  string
	args    []failArg
	blocked []ThreadID
	armed   int
}

// failArg is one evaluated message argument: an int operand's value, kept
// unboxed (boxing would allocate), or any other operand's.
type failArg struct {
	n     int
	v     any
	isNum bool
}

// Error implements the error interface so failures flow naturally through
// test helpers.
func (f *Failure) Error() string {
	return fmt.Sprintf("%s in T%d: %s", f.Kind, f.Thread, f.text())
}

// Clone returns an owned, formatted copy of f (nil for nil): what every
// caller that keeps an Executor's Outcome.Failure past the next run stores.
func (f *Failure) Clone() *Failure {
	if f == nil {
		return nil
	}
	return &Failure{Kind: f.Kind, Thread: f.Thread, Message: f.text()}
}

// text is f's message, formatted from its record when it has one.
func (f *Failure) text() string {
	r := f.rec
	switch {
	case r == nil:
		return f.Message
	case f.Kind == FailDeadlock:
		msg := fmt.Sprintf("deadlock: threads %v blocked with no enabled thread", r.blocked)
		if r.armed > 0 {
			msg += fmt.Sprintf(" (%d armed timer(s) can no longer fire)", r.armed)
		}
		return msg
	}
	vals := make([]any, len(r.args))
	for i, a := range r.args {
		vals[i] = a.value()
	}
	return fmt.Sprintf(r.format, vals...)
}

// value is the argument as the message formats it.
func (a failArg) value() any {
	if a.isNum {
		return a.n
	}
	return a.v
}

// record makes the World's own record the execution's failure: kind and
// thread here, the record's fields already written by the caller. Only the
// first failure of an execution is recorded, so callers write the record
// only while w.failure is nil.
func (w *World) record(kind FailureKind, thread ThreadID) {
	w.own = Failure{Kind: kind, Thread: thread, rec: &w.rec}
	w.failure = &w.own
}
