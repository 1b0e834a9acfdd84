package sched

// A branch key identifies a position in the canonical depth-first
// exploration order: element i is the index into the CanonicalOrder choice
// list taken at scheduling point i — whether that point is a thread choice
// or a select case-decision point (vthread.Context.SelectOf), whose ready
// case indices occupy one trace position and one key element exactly like
// a thread choice. Depth-first search with CanonicalOrder visits terminal
// schedules in exactly the lexicographic order of their branch keys
// (backtracking advances the deepest advanceable index and resets
// everything deeper to zero — lexicographic counting), so a prefix-pinned
// subtree is a contiguous lexicographic range and its start key totally
// orders it against any disjoint subtree.
//
// The parallel exploration driver (internal/explore) relies on this: it
// partitions the tree into prefix-pinned units in whatever order the
// splitting happens to produce, then merges per-unit results sorted by
// CompareBranchKeys to recover results identical to a sequential search.

// CompareBranchKeys orders two branch keys lexicographically, returning
// -1, 0 or +1. A key that is a strict prefix of another orders first: the
// shorter key's subtree starts at (and contains) the longer key's position.
func CompareBranchKeys(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
