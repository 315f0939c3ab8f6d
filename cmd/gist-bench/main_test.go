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

func TestParseBugs(t *testing.T) {
	for _, c := range []struct {
		list    string
		want    []string // bug names, in order; nil = rejected
		unknown []string // quoted names the error must carry
	}{
		{"pbzip2", []string{"pbzip2"}, nil},
		{"pbzip2,apache-3", []string{"pbzip2", "apache-3"}, nil},
		{"nope", nil, []string{`"nope"`}},
		{"pbzip2,nope", nil, []string{`"nope"`}},
		{"nope,curl,bogus", nil, []string{`"nope"`, `"bogus"`}},
		{"pbzip2,", nil, []string{`""`}},
	} {
		suite, err := parseBugs(c.list)
		var got []string
		for _, b := range suite {
			got = append(got, b.Name)
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") || (err == nil) != (c.want != nil) {
			t.Errorf("parseBugs(%q) = %v, %v; want %v", c.list, got, err, c.want)
			continue
		}
		if err == nil {
			continue
		}
		for _, name := range c.unknown {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("parseBugs(%q) error does not name %s: %v", c.list, name, err)
			}
		}
		if !strings.Contains(err.Error(), "gist list") {
			t.Errorf("parseBugs(%q) error does not point at gist list: %v", c.list, err)
		}
	}
}
