package core

import (
	"reflect"
	"testing"
)

func TestMergeWindow(t *testing.T) {
	cases := []struct {
		name          string
		window, added []int
		want          []int
	}{
		{"empty added", []int{1, 2}, nil, []int{1, 2}},
		{"disjoint", []int{1, 2}, []int{4, 3}, []int{1, 2, 4, 3}},
		{"overlap skipped", []int{1, 2}, []int{2, 3}, []int{1, 2, 3}},
		{"dup within added deduped", []int{1}, []int{5, 5, 6}, []int{1, 5, 6}},
		{"empty window", nil, []int{7}, []int{7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := mergeWindow(append([]int(nil), c.window...), c.added)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("mergeWindow(%v, %v) = %v, want %v", c.window, c.added, got, c.want)
			}
		})
	}
}

func TestMergeWindowPreservesAddedOrder(t *testing.T) {
	// Refinement order is diagnosis-visible (it shapes the plan), so the
	// merge must keep added IDs in discovery order, not sorted.
	got := mergeWindow([]int{10}, []int{9, 3, 7})
	want := []int{10, 9, 3, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order not preserved: %v want %v", got, want)
	}
}
