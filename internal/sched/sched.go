// Package sched defines the schedule formalism of §2 of Thomson et al.
// (PPoPP'14): schedules as thread-id sequences, preemption counts, and the
// delay counts of delay-bounded scheduling over the non-preemptive
// round-robin deterministic scheduler.
//
// The cost functions are written incrementally — cost of appending one
// choice to a schedule prefix — because that is how both the execution
// substrate (online accounting) and the exploration engines (pruning)
// consume them. The recursive definitions of the paper are recovered by
// summation, which the property tests verify.
package sched

// ThreadID identifies a virtual thread; ids are assigned in creation order
// starting at 0, which is what round-robin distance is defined over.
type ThreadID int

// NoThread is the "no previous step" sentinel for the first scheduling
// point (a schedule of length zero or one has no preemptions or delays).
const NoThread ThreadID = -1

// Schedule is a list of choices: the thread executing at each step of an
// execution (§2), interleaved — for programs using the multi-way select —
// with case-decision entries whose value is the committed case index,
// each positioned right after its selecting thread's entry (see
// vthread.Context.SelectOf). Replay consumes both kinds uniformly by
// position.
type Schedule []ThreadID

// Clone returns an independent copy of the schedule.
func (s Schedule) Clone() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two schedules are identical.
func (s Schedule) Equal(o Schedule) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the schedule as "<T0 T0 T1 ...>", with ASCII angle
// brackets so the output is grep- and terminal-safe.
func (s Schedule) String() string {
	out := make([]byte, 0, 4*len(s)+8)
	out = append(out, "<"...)
	for i, t := range s {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, 'T')
		out = appendInt(out, int(t))
	}
	return string(append(out, '>'))
}

func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// ContextSwitches counts the steps at which execution switches threads
// (preemptive or not).
func (s Schedule) ContextSwitches() int {
	n := 0
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			n++
		}
	}
	return n
}

// PCStep is the preemption cost of scheduling choice after a step by last,
// where lastEnabled reports whether last is still enabled at this point:
//
//	PC(α·t) = PC(α) + 1  if last(α) ≠ t ∧ last(α) ∈ enabled(α)
//	PC(α·t) = PC(α)      otherwise
//
// At the first step (last == NoThread) the cost is zero.
func PCStep(last ThreadID, lastEnabled bool, choice ThreadID) int {
	if last == NoThread {
		return 0
	}
	if choice != last && lastEnabled {
		return 1
	}
	return 0
}

// Distance is the round-robin distance from x to y over n threads: the
// unique d in [0, n) with (x+d) mod n == y.
func Distance(x, y ThreadID, n int) int {
	if n <= 0 {
		panic("sched: Distance over non-positive thread count")
	}
	d := int(y-x) % n
	if d < 0 {
		d += n
	}
	return d
}

// DCStep is the delay cost of scheduling choice after a step by last, over
// n threads with the given enabledness predicate: the number of enabled
// threads skipped when moving round-robin from last to choice,
//
//	delays(α,t) = |{x : 0 ≤ x < distance(last(α),t) ∧ (last(α)+x) mod N ∈ enabled(α)}|
//
// At the first step (last == NoThread) the cost is zero.
func DCStep(last, choice ThreadID, n int, enabled func(ThreadID) bool) int {
	if last == NoThread {
		return 0
	}
	d := Distance(last, choice, n)
	delays := 0
	for x := 0; x < d; x++ {
		if enabled(ThreadID((int(last) + x) % n)) {
			delays++
		}
	}
	return delays
}

// CanonicalOrder returns the choice order used by every systematic engine
// in this repository: the deterministic scheduler's pick first (the
// non-preemptive continuation when last is enabled, otherwise the next
// enabled thread round-robin from last), then the remaining enabled threads
// in round-robin order. Consequently the first terminal schedule explored
// by DFS, iterative preemption bounding and iterative delay bounding is the
// same non-preemptive round-robin schedule, as §3 of the paper requires.
//
// On a sorted enabled list the round-robin walk from last is a rotation:
// the list from the first id ≥ last onwards (CanonicalStart), then the ids
// before it. Preconditions, shared by every Canonical* function: enabled is
// non-empty and strictly ascending with every id in [0, n), and last is
// NoThread or in [0, n). CanonicalOrder and AppendCanonicalOrder, which
// visit every element anyway, panic on an empty, unsorted, duplicated or
// out-of-range enabled list; CanonicalFirst, CanonicalStart and
// CanonicalPosition run in O(log |enabled|), check only what they read
// (emptiness and the two ends' range) and have an unspecified result on a
// list that is not strictly ascending.
//
// The result is freshly allocated; exploration hot paths that recycle
// buffers should use AppendCanonicalOrder instead.
func CanonicalOrder(enabled []ThreadID, last ThreadID, n int) []ThreadID {
	return AppendCanonicalOrder(make([]ThreadID, 0, len(enabled)), enabled, last, n)
}

// AppendCanonicalOrder appends the canonical choice order (see
// CanonicalOrder) to dst and returns the extended slice. With a dst of
// sufficient capacity it performs no allocation, which is what makes the
// exploration engines' per-node bookkeeping allocation-free when they
// recycle node buffers through a free list.
func AppendCanonicalOrder(dst, enabled []ThreadID, last ThreadID, n int) []ThreadID {
	checkRange(enabled, n, "CanonicalOrder")
	for i := 1; i < len(enabled); i++ {
		if enabled[i] <= enabled[i-1] {
			panic("sched: enabled set not strictly ascending")
		}
	}
	start, _ := CanonicalStart(enabled, last)
	dst = append(dst, enabled[start:]...)
	return append(dst, enabled[:start]...)
}

// CanonicalFirst returns CanonicalOrder(enabled, last, n)[0] — the
// deterministic scheduler's pick — without allocating. It is the
// round-robin continuation choosers use at every scheduling point where
// the previous thread blocked or exited.
func CanonicalFirst(enabled []ThreadID, last ThreadID, n int) ThreadID {
	checkRange(enabled, n, "CanonicalFirst")
	start, _ := CanonicalStart(enabled, last)
	return enabled[start]
}

// checkRange panics unless enabled is non-empty with both ends in [0, n),
// which on an ascending list bounds every element.
func checkRange(enabled []ThreadID, n int, fn string) {
	if len(enabled) == 0 {
		panic("sched: " + fn + " over empty enabled set")
	}
	if enabled[0] < 0 || int(enabled[len(enabled)-1]) >= n {
		panic("sched: enabled ids out of range of thread count")
	}
}

// CanonicalStart returns the index in enabled at which the canonical order
// starts — CanonicalOrder is enabled[start:] followed by enabled[:start] —
// and whether last itself is enabled (in which case enabled[start] == last,
// the non-preemptive continuation). At the first step (last == NoThread)
// start is 0. See CanonicalOrder for the preconditions.
func CanonicalStart(enabled []ThreadID, last ThreadID) (start int, lastEnabled bool) {
	start = lowerBound(enabled, last)
	if start == len(enabled) {
		return 0, false
	}
	return start, enabled[start] == last
}

// CanonicalPosition returns the position of choice in the canonical order
// that starts at index start of enabled (see CanonicalStart), or -1 when
// choice is not enabled.
func CanonicalPosition(enabled []ThreadID, start int, choice ThreadID) int {
	i := lowerBound(enabled, choice)
	if i == len(enabled) || enabled[i] != choice {
		return -1
	}
	if i < start {
		i += len(enabled)
	}
	return i - start
}

// DelayCost is DCStep read off the canonical order: the delay cost of the
// choice at position pos of CanonicalOrder(enabled, last, n) is pos, because
// the enabled threads the round-robin scheduler skips on its way from last
// to that choice are exactly the pos choices before it. At the first step
// (last == NoThread) every choice is free. The property tests hold this
// against DCStep, which remains the definition.
func DelayCost(last ThreadID, pos int) int {
	if last == NoThread {
		return 0
	}
	return pos
}

// lowerBound returns the index of the first id ≥ t in the ascending list
// ids, or len(ids) when every id is smaller. Written out because it inlines:
// slices.BinarySearch does not, and read 8 ns slower in AppendCanonicalOrder
// at four threads.
func lowerBound(ids []ThreadID, t ThreadID) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
