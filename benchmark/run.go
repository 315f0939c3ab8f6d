package main

import (
	"fmt"
	"path/filepath"
	"runtime"
)

// setupReps is how many times a run performs the whole set-up; setup_s
// is the median, so a slow start or two do not decide it.
const setupReps = 5

// clientCount is C, the load generator's goroutine count: min(NumCPU, 4).
func clientCount() int { return min(runtime.NumCPU(), 4) }

// setUp performs the common set-up and the workload's own reps times,
// keeps the last environment and returns the median duration.
func setUp(name string, seed, seedBase int64, reps int) (*suite, driver, float64, error) {
	var secs, stolen []float64
	var s *suite
	var d driver
	for rep := 0; rep < reps; rep++ {
		if d != nil {
			d.close()
		}
		watch := startWatch()
		var err error
		if s, err = newSuite(seed, seedBase, clientCount()); err != nil {
			return nil, nil, 0, err
		}
		if d, err = newDriver(name, s); err != nil {
			return nil, nil, 0, err
		}
		took, lost := watch.stop()
		secs = append(secs, took.Seconds())
		stolen = append(stolen, lost)
	}
	// Like every timing, the set-ups read at zero steal (steal.go).
	_, own := steadied(secs, stolen)
	for i, o := range own {
		secs[i] *= o
	}
	return s, d, median(secs), nil
}

// runOne performs one run of one workload: set-up, then either the
// untraced window for the end-to-end metrics, or half an untraced
// window, half a traced one and the layer probes for the per-layer
// metrics.
func runOne(spec *benchSpec, name string, seed, seedBase int64, seconds float64, trace bool, traceDir string) (*runResult, error) {
	reps := setupReps
	if trace {
		reps = 1 // the traced pass does not report setup_s
	}
	s, d, setupS, err := setUp(name, seed, seedBase, reps)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res := &runResult{Workload: name, Trace: trace, Seed: seed, Sizes: map[string]float64{
		"clients": float64(s.clients), "bugs": float64(len(s.cases)), "setup_reps": float64(reps),
	}}
	var m *metricSet
	if trace {
		m = newMetricSet(spec.PerLayer)
		err = tracedRun(res, m, name, s, d, seconds, traceDir)
	} else {
		m = newMetricSet(spec.EndToEnd)
		m.set("setup_s", setupS)
		endToEndRun(res, m, d, seconds)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics = m.values()
	for _, n := range m.unknown {
		res.Errors = append(res.Errors, fmt.Sprintf("metric %q is not declared in BENCHMARK.json", n))
	}
	if !trace {
		for _, ms := range spec.EndToEnd {
			if m.get(ms.Name) == 0 {
				res.Errors = append(res.Errors, fmt.Sprintf("end-to-end metric %s is 0 on %s", ms.Name, name))
			}
		}
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	return res, nil
}

// account folds a window's operations into the result.
func (r *runResult) account(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	r.Errors = append(r.Errors, w.errs...)
}

// endToEndRun measures the untraced window. Timings and allocation come
// from it alone. The count metrics are exact properties of the
// diagnoses, identical in every round, so where counting executed runs
// needs the pipeline's tracer they are taken from one extra traced round
// after the window.
func endToEndRun(res *runResult, m *metricSet, d driver, seconds float64) {
	w := measure(d, nil, seconds)
	res.account(&w)
	counts := &w
	if w.executed < 0 {
		cw := measure(d, newObserver(), 0)
		res.account(&cw)
		counts = &cw
	}
	if w.ops == 0 || len(counts.diags) == 0 {
		res.Errors = append(res.Errors, "no operation succeeded; nothing to measure")
		return
	}
	m.set("ops_per_sec", w.opsPerSec())
	m.set("op_ms_p50", median(w.roundP50))
	m.set("op_ms_p90", median(w.roundP90))
	m.set("alloc_kb_per_op", float64(w.allocBytes)/1024/float64(w.ops))
	m.set("runs_per_diag", float64(counts.executed)/float64(len(counts.diags)))
	m.set("recurrences_per_diag", counts.meanStat(func(d diagStat) float64 { return float64(d.recurrences) }))
	m.set("accuracy_pct", counts.meanStat(func(d diagStat) float64 { return d.c.accuracy }))
	m.set("tracking_overhead_pct", counts.meanStat(func(d diagStat) float64 { return d.overheadPct }))

	res.Sizes["window_s"] = w.wall.Seconds()
	res.Sizes["steal_pct"] = w.stealPct()
	res.Sizes["steal_kappa"] = w.stealKappa
	res.Sizes["raw_ops_per_sec"] = w.rawRate
	res.Sizes["raw_op_ms_p50"] = w.rawP50
	res.Sizes["rounds"] = float64(w.rounds)
	res.Sizes["ops"] = float64(w.ops)
	res.Sizes["latency_samples"] = float64(len(w.lat))
	// Below 100 samples p90 has fewer than ten beyond it and reads as a
	// couple of outliers; the recorded figure says which percentile the
	// sample supports.
	res.Sizes["highest_supported_percentile"] = tailPercentile(len(w.lat))
}

// tracedRun measures half the time untraced and half traced, so that
// the tracing overhead is a like-for-like ratio, then runs the layer
// probes and writes the spans out.
func tracedRun(res *runResult, m *metricSet, name string, s *suite, d driver, seconds float64, traceDir string) error {
	u := measure(d, nil, seconds/2)
	res.account(&u)
	obs := newObserver()
	before := takeCounters()
	t := measure(d, obs, seconds/2)
	after := takeCounters()
	res.account(&t)
	if u.ops == 0 || t.ops == 0 {
		res.Errors = append(res.Errors, "no operation succeeded; nothing to measure")
		return nil
	}
	spans := obs.rec.snapshot()
	res.Ledger = latencyLedger(spans)
	layerMetrics(res, m, name, d, &u, &t, baseline(name, s), obs, spans, after.sub(before))
	if err := runProbes(s, m); err != nil {
		return err
	}
	// Ratios against a probe can only be formed once the probes ran.
	if instr := m.get("core.instr_run_us_p50"); instr > 0 {
		m.set("service.agent.busy_over_instr_run", m.get("service.agent.busy_ms_per_task_p50")*1e3/instr)
	}
	m.set("bench.peak_rss_mb", peakRSSMB())

	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, s.seed))
	if err := writeJSONL(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	res.Sizes["untraced_window_s"] = u.wall.Seconds()
	res.Sizes["traced_window_s"] = t.wall.Seconds()
	res.Sizes["traced_rounds"] = float64(t.rounds)
	res.Sizes["traced_ops"] = float64(t.ops)
	return nil
}
