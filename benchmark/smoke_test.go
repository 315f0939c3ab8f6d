package main

import (
	"path/filepath"
	"testing"
)

// One traced round of each workload over one shared set-up: zero failed
// operations, every sketch equal to its golden, and no per-layer metric
// reported under a name BENCHMARK.json does not declare. The traced
// round runs everything the untraced one does plus the seams.
func TestWorkloadSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSuite(1, goldenSeedBase, clientCount())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.cases {
		if err := c.checkGolden(); err != nil {
			t.Errorf("%s: %v", c.bug.Name, err)
		}
	}
	nonzero := map[string]bool{}
	note := func(m *metricSet) {
		if len(m.unknown) != 0 {
			t.Errorf("metrics set but not declared in BENCHMARK.json: %v", m.unknown)
		}
		for name, v := range m.vals {
			nonzero[name] = nonzero[name] || v != 0
		}
	}
	for _, name := range workloadNames {
		m := newMetricSet(spec.PerLayer)
		d, err := newDriver(name, s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if storm, ok := d.(*stormDriver); ok {
			storm.batch = 2000
		}
		obs := newObserver()
		before := takeCounters()
		w := measure(d, obs, 0)
		delta := takeCounters().sub(before)
		d.close()
		if w.failed != 0 || w.attempted == 0 || w.ops == 0 {
			t.Errorf("%s: %d attempted, %d failed, %d ok: %v", name, w.attempted, w.failed, w.ops, w.errs)
		}
		if w.executed <= 0 {
			t.Errorf("%s: traced round counted %d executed runs", name, w.executed)
		}
		res := &runResult{}
		spans := obs.rec.snapshot()
		layerMetrics(res, m, name, d, &w, &w, nil, obs, spans, delta)
		if len(res.Errors) != 0 {
			t.Errorf("%s: self-check: %v", name, res.Errors)
		}
		switch name {
		case "local_serial":
			if m.get("core.wasted_run_ratio") != 0 || m.get("core.stage_coverage_pct") < 90 {
				t.Errorf("local_serial: wasted %g, stage coverage %g", m.get("core.wasted_run_ratio"), m.get("core.stage_coverage_pct"))
			}
		case "service_loopback":
			if m.get("service.rpcs_per_op") <= 0 || m.get("store.kb_written_per_op") <= 0 {
				t.Errorf("service_loopback saw no wire or store traffic")
			}
		case "recurrence_storm":
			if delta.pt.DecodeCalls != 0 {
				t.Errorf("recurrence_storm executed runs in its window")
			}
		case "shard_fleet":
			if m.get("shard.lease_ops_per_diag") <= 0 {
				t.Errorf("shard_fleet saw no lease traffic")
			}
		}
		if err := writeJSONL(filepath.Join(t.TempDir(), name+".jsonl"), spans); err != nil {
			t.Error(err)
		}
		note(m)
	}
	m := newMetricSet(spec.PerLayer)
	if err := runProbes(s, m); err != nil {
		t.Fatal(err)
	}
	note(m)
	// Set only by a full traced run, or legitimately 0 on a clean fleet.
	skipped := map[string]bool{
		"bench.peak_rss_mb": true, "bench.trace_overhead_pct": true, "hw.pt.decode_errors": true,
		"service.over_local_ratio": true, "service.agent.busy_over_instr_run": true, "shard.scaling_eff": true,
	}
	for _, ms := range spec.PerLayer {
		if !nonzero[ms.Name] && !skipped[ms.Name] {
			t.Errorf("per-layer metric %s was 0 on every workload", ms.Name)
		}
	}
}
