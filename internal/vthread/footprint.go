package vthread

// Footprint is the set of shared-object keys a pending operation touches.
// It generalises the former two-element array ([2]string) to N-ary
// footprints so multi-object operations — a 4-way Select touches all four
// channels — can state what they commute with.
//
// Representation: two inline slots cover every non-select operation (the
// widest classical op, a condvar wait, touches the condvar and the mutex),
// so the common case stays a flat value with no pointer chasing and no
// allocation; operations with more objects carry the tail in an overflow
// slice that the *operation* owns and builds once (Select builds it when
// the op is registered, not per PendingOf call), which keeps the
// 7-allocs/execution hot path of the pooled Executor intact. A Footprint
// must be treated as immutable once published in a PendingInfo: engines
// retain copies across executions, and copies share the overflow slice.
type Footprint struct {
	n      int
	o0, o1 string
	ext    []string // objects 2..n-1; immutable once published
}

// NewFootprint builds a footprint over the given object keys. Exported for
// tests and choosers that synthesise PendingInfo values; substrate-internal
// sites use add/footprintOverKeys to avoid the variadic allocation.
func NewFootprint(keys ...string) Footprint {
	var f Footprint
	for _, k := range keys {
		f.add(k)
	}
	return f
}

// footprintOverKeys wraps an existing key slice as a footprint without
// copying. The caller must never mutate keys afterwards.
func footprintOverKeys(keys []string) Footprint {
	f := Footprint{n: len(keys)}
	if len(keys) > 0 {
		f.o0 = keys[0]
	}
	if len(keys) > 1 {
		f.o1 = keys[1]
	}
	if len(keys) > 2 {
		f.ext = keys[2:]
	}
	return f
}

// add appends one object key. Only the first two keys stay inline; later
// ones spill to the overflow slice (allocating, so hot paths with >2
// objects should pre-build the key slice and use footprintOverKeys).
func (f *Footprint) add(key string) {
	switch f.n {
	case 0:
		f.o0 = key
	case 1:
		f.o1 = key
	default:
		f.ext = append(f.ext, key)
	}
	f.n++
}

// Len returns the number of objects in the footprint.
func (f *Footprint) Len() int { return f.n }

// Obj returns the i-th object key, 0 <= i < Len().
func (f *Footprint) Obj(i int) string {
	switch i {
	case 0:
		return f.o0
	case 1:
		return f.o1
	default:
		return f.ext[i-2]
	}
}

// Contains reports whether the footprint includes key.
func (f *Footprint) Contains(key string) bool {
	for i := 0; i < f.n; i++ {
		if f.Obj(i) == key {
			return true
		}
	}
	return false
}

// Overlaps reports whether the two footprints share any object.
func (f *Footprint) Overlaps(o *Footprint) bool {
	for i := 0; i < f.n; i++ {
		if o.Contains(f.Obj(i)) {
			return true
		}
	}
	return false
}
