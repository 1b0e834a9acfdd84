package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ringWalkOrder is the canonical order as it was computed before it became
// a rotation of the sorted enabled list: walk the ring of n ids once from
// last and keep the enabled ones. It is the reference the rotation is held
// against; it makes no assumption about the order of enabled.
func ringWalkOrder(enabled []ThreadID, last ThreadID, n int) []ThreadID {
	start := last
	if start == NoThread {
		start = 0
	}
	var out []ThreadID
	for x := 0; x < n; x++ {
		id := ThreadID((int(start) + x) % n)
		if slices.Contains(enabled, id) {
			out = append(out, id)
		}
	}
	return out
}

// randomSubset returns a non-empty ascending subset of [0, n).
func randomSubset(rng *rand.Rand, n int) []ThreadID {
	for {
		var out []ThreadID
		for id := 0; id < n; id++ {
			if rng.Intn(3) != 0 {
				out = append(out, ThreadID(id))
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}

// TestRotationMatchesRingWalk: for random sorted subsets at n = 1, 4 and 100
// and every last — NoThread, enabled and disabled ones alike — the rotation
// is the ring walk, CanonicalFirst and CanonicalStart name its first
// element, CanonicalPosition inverts it, and the delay cost of its i-th
// choice is DCStep's (the predicate form, which stays the definition), which
// is i.
func TestRotationMatchesRingWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 4, 100} {
		for round := 0; round < 60; round++ {
			enabled := randomSubset(rng, n)
			isEnabled := func(id ThreadID) bool { return slices.Contains(enabled, id) }
			for last := NoThread; int(last) < n; last++ {
				want := ringWalkOrder(enabled, last, n)
				got := CanonicalOrder(enabled, last, n)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d enabled=%v last=%d: rotation %v, ring walk %v", n, enabled, last, got, want)
				}
				start, lastEnabled := CanonicalStart(enabled, last)
				if enabled[start] != want[0] || CanonicalFirst(enabled, last, n) != want[0] {
					t.Fatalf("n=%d enabled=%v last=%d: start %d, first %d, want first %d",
						n, enabled, last, start, CanonicalFirst(enabled, last, n), want[0])
				}
				if lastEnabled != (last != NoThread && isEnabled(last)) {
					t.Fatalf("n=%d enabled=%v last=%d: lastEnabled = %v", n, enabled, last, lastEnabled)
				}
				for i, choice := range want {
					if pos := CanonicalPosition(enabled, start, choice); pos != i {
						t.Fatalf("n=%d enabled=%v last=%d: position of %d = %d, want %d", n, enabled, last, choice, pos, i)
					}
					dc := DCStep(last, choice, n, isEnabled)
					if got := DelayCost(last, i); got != dc {
						t.Fatalf("n=%d enabled=%v last=%d choice=%d (position %d): DelayCost %d, DCStep %d",
							n, enabled, last, choice, i, got, dc)
					}
					if last != NoThread && dc != i {
						t.Fatalf("n=%d enabled=%v last=%d: DCStep of the choice at position %d is %d", n, enabled, last, i, dc)
					}
				}
				for id := ThreadID(-2); int(id) < n+2; id++ {
					if !isEnabled(id) && CanonicalPosition(enabled, start, id) != -1 {
						t.Fatalf("n=%d enabled=%v: position of disabled %d is not -1", n, enabled, id)
					}
				}
			}
		}
	}
}

// TestCanonicalOrderInputOutcomes states what each malformed input does.
// CanonicalOrder and AppendCanonicalOrder read every element and panic on
// all four; CanonicalFirst reads only what it needs, so it panics on an
// empty or out-of-range list and leaves an unsorted or duplicated one as a
// documented precondition (its result is then unspecified, but it returns).
func TestCanonicalOrderInputOutcomes(t *testing.T) {
	panicOf := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	cases := []struct {
		name    string
		enabled []ThreadID
		n       int
		order   string // panic of CanonicalOrder/AppendCanonicalOrder contains this
		first   string // panic of CanonicalFirst contains this ("" = returns)
	}{
		{name: "empty", enabled: nil, n: 3, order: "over empty enabled set", first: "over empty enabled set"},
		{name: "unsorted", enabled: []ThreadID{0, 2, 1}, n: 3, order: "not strictly ascending"},
		{name: "duplicate", enabled: []ThreadID{0, 1, 1}, n: 3, order: "not strictly ascending"},
		{name: "id beyond the thread count", enabled: []ThreadID{0, 1, 3}, n: 3, order: "out of range", first: "out of range"},
		{name: "negative id", enabled: []ThreadID{-1, 0}, n: 3, order: "out of range", first: "out of range"},
	}
	for _, c := range cases {
		for name, f := range map[string]func(){
			"CanonicalOrder":       func() { CanonicalOrder(c.enabled, 1, c.n) },
			"AppendCanonicalOrder": func() { AppendCanonicalOrder(nil, c.enabled, 1, c.n) },
		} {
			if msg := panicOf(f); !strings.Contains(msg, c.order) {
				t.Errorf("%s, %s: panic %q, want one containing %q", c.name, name, msg, c.order)
			}
		}
		msg := panicOf(func() { CanonicalFirst(c.enabled, 1, c.n) })
		if c.first == "" && msg != "" || c.first != "" && !strings.Contains(msg, c.first) {
			t.Errorf("%s, CanonicalFirst: panic %q, want %q", c.name, msg, c.first)
		}
	}
}
