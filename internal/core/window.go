package core

import "slices"

// mergeWindow appends to window every id of added that the window does
// not already contain, in added order, deduplicating against the window
// as it grows. It returns the (possibly reallocated) window; callers
// must use the return value.
//
// Adaptive slice tracking takes the first sigma source lines of the
// slice and merges in every statement runtime refinement has discovered
// so far (§3.2.3): these merge semantics determine the plan's tracked
// set and therefore the diagnosis output.
func mergeWindow(window, added []int) []int {
	for _, id := range added {
		if !slices.Contains(window, id) {
			window = append(window, id)
		}
	}
	return window
}
