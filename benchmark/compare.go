package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untraced collects, per workload, the values of each end-to-end metric
// over the file's untraced runs, and the workload's failed-operation
// share over all its runs.
func (f *resultFile) untraced() (values map[string]map[string][]float64, failedShare map[string]float64) {
	values = map[string]map[string][]float64{}
	attempted, failed := map[string]int{}, map[string]int{}
	for _, r := range f.Runs {
		attempted[r.Workload] += r.Attempted
		failed[r.Workload] += r.Failed
		if r.Trace {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
		}
	}
	failedShare = map[string]float64{}
	for w, n := range attempted {
		failedShare[w] = ratio(float64(failed[w]), float64(n))
	}
	return values, failedShare
}

// verdict applies the rule of choosing-metrics §6.5 to one metric: the
// change's median may not be worse than the parent's by more than the
// bound; where either side's own run-to-run spread is wider than the
// bound the row is unresolved, not unchanged — unless every run of the
// change reads better than every run of the parent.
func verdict(ms metricSpec, old, new []float64) (worse float64, v string) {
	mo, mn := median(old), median(new)
	if mo == 0 {
		return 0, verdictUnresolved
	}
	worse = (mn - mo) / mo // share by which the metric got worse
	if ms.Better == "higher" {
		worse = -worse
	}
	bound := *ms.Bound
	if max(quartileSpread(old), quartileSpread(new)) > bound && !allBetter(ms, old, new) {
		return worse, verdictUnresolved
	}
	if worse > bound {
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

func allBetter(ms metricSpec, old, new []float64) bool {
	for _, n := range new {
		for _, o := range old {
			if (ms.Better == "higher" && n <= o) || (ms.Better != "higher" && n >= o) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both medians, their ratio and its base, and the verdict. It reports
// whether anything regressed or a workload's failed-operation share
// rose.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) (regressed bool, err error) {
	oldF, err := readResultFile(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	oldV, oldFail := oldF.untraced()
	newV, newFail := newF.untraced()
	fmt.Fprintf(w, "old: %s (revision %s, seed %d)\nnew: %s (revision %s, seed %d)\n",
		oldPath, oldF.Fingerprint.Revision, oldF.Fingerprint.Seed, newPath, newF.Fingerprint.Revision, newF.Fingerprint.Seed)
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %10s %8s %7s %7s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "worse%", "bound%", "runs", "verdict")
	for _, wl := range workloadNames {
		if oldV[wl] == nil && newV[wl] == nil {
			continue // neither file ran it
		}
		for _, ms := range spec.EndToEnd {
			o, n := oldV[wl][ms.Name], newV[wl][ms.Name]
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-18s %-24s missing from one file\n", wl, ms.Name)
				regressed = true
				continue
			}
			worse, v := verdict(ms, o, n)
			if v == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-24s %14.4f %14.4f %10.4f %8.2f %7.1f %3d/%-3d  %s\n",
				wl, ms.Name, median(o), median(n), ratio(median(n), median(o)), worse*100, *ms.Bound*100, len(o), len(n), v)
		}
		if newFail[wl] > oldFail[wl] {
			fmt.Fprintf(w, "%-18s failed-operation share rose from %.4f to %.4f: regressed\n", wl, oldFail[wl], newFail[wl])
			regressed = true
		}
	}
	fmt.Fprintln(w, "new/old is the new median over the old median (base: old); worse% is the share of the old median by which the metric moved in its bad direction.")
	return regressed, nil
}
