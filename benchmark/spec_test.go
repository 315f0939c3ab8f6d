package main

import (
	"regexp"
	"testing"
)

const specPath = "../BENCHMARK.json"

// BENCHMARK.json parses and stays within the contract's limits.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	// The driver's list is the workloads whose bounds this box can hold
	// (README, Noise): between 2 and 8 of the program's, in its order.
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Fatalf("%d workloads, want 2..8", n)
	}
	next := 0
	for _, w := range spec.Workloads {
		unique(w.Name)
		for next < len(workloadNames) && workloadNames[next] != w.Name {
			next++
		}
		if next == len(workloadNames) {
			t.Errorf("workload %q is not one of %v, or out of their order", w.Name, workloadNames)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in [0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
}

func TestMetricSetRefusesUndeclaredNames(t *testing.T) {
	m := newMetricSet([]metricSpec{{Name: "a", Unit: "ms"}})
	m.set("a", 2)
	m.set("b", 3)
	if m.get("a") != 2 || len(m.unknown) != 1 || m.unknown[0] != "b" {
		t.Errorf("vals %v, unknown %v", m.vals, m.unknown)
	}
	if v := m.values(); len(v) != 1 || v["a"].Unit != "ms" {
		t.Errorf("values %v", v)
	}
}
