package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is set
// on end-to-end metrics only: the share of the parent's median by which
// the metric may get worse before a change counts as a regression.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are fixed. The benchmark reads it
// and refuses to report a metric it does not list.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one declared metric list. Every
// declared metric starts at 0 — a layer the workload never crosses did
// no work and took no time — and setting an undeclared name is an error
// reported with the result, so a typo cannot silently drop a number.
type metricSet struct {
	specs   []metricSpec
	vals    map[string]float64
	unknown []string
}

func newMetricSet(specs []metricSpec) *metricSet {
	m := &metricSet{specs: specs, vals: make(map[string]float64, len(specs))}
	for _, s := range specs {
		m.vals[s.Name] = 0
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.vals[name]; !ok {
		m.unknown = append(m.unknown, name)
		return
	}
	m.vals[name] = v
}

func (m *metricSet) get(name string) float64 { return m.vals[name] }

func (m *metricSet) values() map[string]metricValue {
	out := make(map[string]metricValue, len(m.specs))
	for _, s := range m.specs {
		out[s.Name] = metricValue{Value: m.vals[s.Name], Unit: s.Unit}
	}
	return out
}

// runResult is the outcome of one (workload, trace) run. Its first four
// fields are the contract's result line; the rest is kept in result
// files for -compare and for the reader.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string             `json:"workload,omitempty"`
	Trace    bool               `json:"trace,omitempty"`
	Seed     int64              `json:"seed,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
	Sizes    map[string]float64 `json:"sizes,omitempty"`
	Ledger   []ledgerRow        `json:"ledger,omitempty"`
}

// line is the contract's result line: exactly correct, attempted,
// failed and metrics.
func (r *runResult) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// render prints every metric by name with its unit, in the order
// BENCHMARK.json lists them, then the sizes behind them.
func (r *runResult) render(specs []metricSpec) string {
	var sb strings.Builder
	pass := "end-to-end, untraced window"
	if r.Trace {
		pass = "per-layer, traced pass and probes"
	}
	fmt.Fprintf(&sb, "== %s seed %d (%s)\n", r.Workload, r.Seed, pass)
	for _, s := range specs {
		fmt.Fprintf(&sb, "  %-36s %16.4f %s\n", s.Name, r.Metrics[s.Name].Value, s.Unit)
	}
	names := make([]string, 0, len(r.Sizes))
	for n := range r.Sizes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "  [%s = %g]\n", n, r.Sizes[n])
	}
	if len(r.Ledger) > 0 {
		fmt.Fprintf(&sb, "  latency ledger (self time per diagnosis):\n")
		for _, l := range r.Ledger {
			fmt.Fprintf(&sb, "    %-14s %-22s %10.3f ms %6.1f %%  (%d spans)\n", l.Layer, l.Name, l.SelfMS, l.SharePct, l.Spans)
		}
	}
	fmt.Fprintf(&sb, "  operations: %d attempted, %d failed; correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(&sb, "  ! %s\n", e)
	}
	return sb.String()
}
