package main

import (
	"strings"
	"testing"
)

func TestSelectedExperiments(t *testing.T) {
	for _, c := range []struct {
		exp  string
		want int // experiments selected; 0 = rejected
	}{
		{"all", len(table)},
		{"table1", 1},
		{"chaos", 1},
		{"perf", 0}, // retired with the BENCH experiments
		{"bogus", 0},
		{"", 0},
		{"Table1", 0},
	} {
		got, err := selected(c.exp)
		if len(got) != c.want || (err == nil) != (c.want > 0) {
			t.Errorf("selected(%q) = %d experiments, %v; want %d", c.exp, len(got), err, c.want)
		}
		if c.want == 1 && got[0].name != c.exp {
			t.Errorf("selected(%q) picked %q", c.exp, got[0].name)
		}
		if err != nil && !strings.Contains(err.Error(), "table1, sketches, fig9") {
			t.Errorf("selected(%q) error does not list the valid names: %v", c.exp, err)
		}
	}
}
