package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/hw/pt"
	"repro/internal/hw/watch"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// counters are the process-wide counters the layers already publish,
// read before and after the traced pass.
type counters struct {
	cache analysis.Stats
	pt    pt.Metrics
	watch watch.Metrics
}

func takeCounters() counters {
	return counters{cache: analysis.Snapshot(), pt: pt.Snapshot(), watch: watch.Snapshot()}
}

func (a counters) sub(b counters) counters {
	a.cache.GraphBuilds -= b.cache.GraphBuilds
	a.cache.GraphHits -= b.cache.GraphHits
	a.cache.SliceBuilds -= b.cache.SliceBuilds
	a.cache.SliceHits -= b.cache.SliceHits
	a.cache.BytecodeBuilds -= b.cache.BytecodeBuilds
	a.cache.BytecodeHits -= b.cache.BytecodeHits
	a.pt.DecodeCalls -= b.pt.DecodeCalls
	a.pt.DecodeErrors -= b.pt.DecodeErrors
	a.pt.DecodedBytes -= b.pt.DecodedBytes
	a.watch.Traps -= b.watch.Traps
	return a
}

// ratio is a/b, 0 when the layer saw nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns what the traced pass saw into the per-layer
// metrics. u is the untraced half, t the traced half; a metric of a
// layer the workload does not cross stays 0. base is the untraced
// comparison window two ratios need — local_serial for the service,
// a one-worker fleet for the shard fleet — or nil to leave them out.
func layerMetrics(res *runResult, m *metricSet, name string, d driver, u, t, base *window, obs *observer, spans []span, delta counters) {
	ops := float64(t.ops)
	diags := float64(len(t.diags))
	storm := name == "recurrence_storm"
	if storm {
		// The storm's diags are its set-up diagnoses; its window holds none.
		diags = 0
	}

	// bench: numbers that qualify the others.
	m.set("bench.trace_overhead_pct", (ratio(u.opsPerSec(), t.opsPerSec())-1)*100)
	m.set("bench.gc_pause_ms", float64(t.gcPauseNS)/1e6)
	m.set("bench.spans", float64(len(spans)))

	// analysis: cache hit ratios over the traced pass.
	c := delta.cache
	m.set("analysis.graph_hit_ratio", ratio(float64(c.GraphHits), float64(c.GraphHits+c.GraphBuilds)))
	m.set("analysis.slice_hit_ratio", ratio(float64(c.SliceHits), float64(c.SliceHits+c.SliceBuilds)))
	m.set("analysis.bytecode_hit_ratio", ratio(float64(c.BytecodeHits), float64(c.BytecodeHits+c.BytecodeBuilds)))

	// hw.pt, hw.watch: the packages' own counters, per executed run, and
	// the pipeline's decode/collect spans where its tracer is on the run
	// path (the service's agents run without one).
	runs := float64(t.executed)
	if storm {
		runs = 0
	}
	phases := obs.tel.Snapshot().Phases
	m.set("hw.pt.decoded_kb_per_run", ratio(float64(delta.pt.DecodedBytes)/1024, runs))
	m.set("hw.pt.decode_errors", float64(delta.pt.DecodeErrors))
	m.set("hw.pt.decode_ms_per_diag", ratio(phases[telemetry.PhaseDecode].TotalMS(), diags))
	m.set("hw.watch.traps_per_run", ratio(float64(delta.watch.Traps), runs))
	m.set("hw.watch.collect_ms_per_diag", ratio(phases[telemetry.PhaseWatch].TotalMS(), diags))

	// core (campaign): stage spans exist on local_serial only; the
	// counts come from every diagnosing workload.
	coreNS := map[string]int64{} // by span name: the five stages and "run"
	var diagNS int64
	for _, sp := range spans {
		switch sp.Layer {
		case "core":
			coreNS[sp.Name] += sp.EndNS - sp.StartNS
		case "bench":
			diagNS += sp.EndNS - sp.StartNS
		}
	}
	var stagesNS int64
	for _, stage := range []string{"plan", "dispatch", "admit", "rank", "decide"} {
		m.set("core."+stage+"_ms_per_diag", ratio(float64(coreNS[stage])/1e6, diags))
		stagesNS += coreNS[stage]
	}
	// Runs are children of dispatch (and of admit's retries): dispatch
	// minus run is what ordered admission itself costs.
	m.set("core.run_ms_per_diag", ratio(float64(coreNS["run"])/1e6, diags))
	if name == "local_serial" {
		coverage := ratio(float64(stagesNS), float64(diagNS)) * 100
		m.set("core.stage_coverage_pct", coverage)
		if coverage < 90 {
			res.Errors = append(res.Errors, fmt.Sprintf("self-check: the five stage spans cover %.1f %% of the diagnosis spans, below 90 %%", coverage))
		}
	}
	if diags > 0 {
		admitted := t.meanStat(func(d diagStat) float64 { return float64(d.runsAdmitted) })
		m.set("core.iters_per_diag", t.meanStat(func(d diagStat) float64 { return float64(d.iters) }))
		m.set("core.runs_admitted_per_diag", admitted)
		m.set("core.wasted_run_ratio", ratio(runs-admitted*diags, runs))
		m.set("core.oracle_accept_pct", 100*t.meanStat(func(d diagStat) float64 {
			if d.c.accepted {
				return 1
			}
			return 0
		}))
	}

	// store: the counting Backend.
	st := obs.store
	m.set("store.ops_per_op", ratio(float64(st.ops), ops))
	m.set("store.kb_written_per_op", ratio(float64(st.written)/1024, ops))
	m.set("store.kb_read_per_op", ratio(float64(st.read)/1024, ops))
	m.set("store.busy_us_per_op", ratio(float64(st.busyNS)/1e3, ops))

	// service (wire): the counting RoundTrippers.
	w := &obs.wire
	rpcs, wireBytes := w.totals()
	m.set("service.rpcs_per_op", ratio(float64(rpcs), ops))
	m.set("service.wire_kb_per_op", ratio(float64(wireBytes)/1024, ops))
	for path, metric := range map[string]string{
		service.PathSubmit: "service.submit_ms_p50", service.PathPoll: "service.poll_ms_p50",
		service.PathUpload: "service.upload_ms_p50", service.PathSketch: "service.sketch_ms_p50",
	} {
		if ps := w.paths[path]; ps != nil {
			m.set(metric, median(ps.ms))
		}
	}
	polls := float64(w.tasks + w.emptyPolls)
	m.set("service.polls_per_task", ratio(polls, float64(w.tasks)))
	m.set("service.empty_poll_ratio", ratio(float64(w.emptyPolls), polls))
	m.set("service.task_kb_p50", median(w.taskKB))
	m.set("service.trace_kb_p50", median(w.traceKB))

	switch dd := d.(type) {
	case *serviceDriver:
		serviceLedger(m, u, base, spans)
	case *stormDriver:
		stormLedger(m, dd, t)
	case *shardDriver:
		shardLedger(m, dd, u, t, base, st)
	}
}

// baseline measures the untraced comparison window of a workload's
// ledger: two rounds of local_serial for the service's over-local
// ratio, one round of a one-worker fleet for the shard fleet's scaling
// efficiency. Other workloads have none.
func baseline(name string, s *suite) *window {
	switch name {
	case "service_loopback":
		local := &localDriver{s: s, workers: 1}
		w, w2 := measure(local, nil, 0), measure(local, nil, 0)
		w.lat, w.diags = append(w.lat, w2.lat...), append(w.diags, w2.diags...)
		return &w
	case "shard_fleet":
		w := measure(&shardDriver{s: s, procs: 1}, nil, 0)
		return &w
	}
	return nil
}

// serviceLedger answers where a diagnosis through the service spends
// the time it does not spend computing.
func serviceLedger(m *metricSet, u, local *window, spans []span) {
	// stall: the share of each diagnosis span during which no agent of
	// its tenant holds a task.
	tasks := map[int][]span{}
	var taskMS []float64
	for _, sp := range spans {
		if sp.Layer == agentLayer {
			tasks[sp.Diag] = append(tasks[sp.Diag], sp)
			taskMS = append(taskMS, float64(sp.EndNS-sp.StartNS)/1e6)
		}
	}
	var spanNS, busyNS int64
	for _, sp := range spans {
		if sp.Layer == "bench" {
			spanNS += sp.EndNS - sp.StartNS
			busyNS += coveredNS(sp.StartNS, sp.EndNS, tasks[sp.ID])
		}
	}
	m.set("service.stall_pct", (1-ratio(float64(busyNS), float64(spanNS)))*100)
	m.set("service.agent.busy_ms_per_task_p50", median(taskMS))

	// over_local: per-bug geometric mean of the untraced median through
	// the service over the untraced median in process.
	if local == nil {
		return
	}
	base, through := perBugMedian(local), perBugMedian(u)
	var ratios []float64
	for c, ms := range through {
		if base[c] > 0 {
			ratios = append(ratios, ms/base[c])
		}
	}
	m.set("service.over_local_ratio", geomean(ratios))
}

// perBugMedian is the median diagnosis latency per bug. For diagnosing
// workloads lat and diags are appended together, one entry each per
// successful diagnosis.
func perBugMedian(w *window) map[*bugCase]float64 {
	by := map[*bugCase][]float64{}
	for i, ms := range w.lat {
		by[w.diags[i].c] = append(by[w.diags[i].c], ms)
	}
	out := make(map[*bugCase]float64, len(by))
	for c, xs := range by {
		out[c] = median(xs)
	}
	return out
}

// stormLedger reports the front door: dedup, the sketch cache and the
// reload path behind it.
func stormLedger(m *metricSet, d *stormDriver, t *window) {
	cache := d.srv.CacheStats()
	ing := d.srv.IngestStats()
	cnt, _ := d.srv.Snapshot()
	// The server's counters are cumulative; all of its fetches and all
	// folds but the twelve novel set-up reports belong to storm windows.
	hit := ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses))
	m.set("ingest.cache_hit_ratio", hit)
	m.set("ingest.reloads_per_kfetch", 1000*ratio(float64(cnt.SketchReloads), float64(cache.Hits+cache.Misses)))
	m.set("ingest.dedup_ratio", ratio(float64(ing.Folded), float64(ing.Reports)))
	m.set("ingest.admit_ms_p99", pct(t.lat, 99))
	m.set("ingest.fetch_ms_p50", pct(t.fetchMS, 50))
	// A reload decodes a checkpoint and re-renders; a hit copies bytes.
	// Reloads are therefore the slow (1 - hit) share of the fetches, and
	// each group's median sits in the middle of its share.
	fetch := append([]float64(nil), t.fetchMS...)
	sort.Float64s(fetch)
	if len(fetch) > 0 {
		m.set("ingest.fetch_hit_us_p50", percentile(fetch, 100*hit/2)*1e3)
		m.set("ingest.fetch_reload_us_p50", percentile(fetch, 100*(hit+(1-hit)/2))*1e3)
	}
}

// shardLedger reports the fleet: how busy the workers are, what the
// leases cost, and what a second worker buys.
func shardLedger(m *metricSet, d *shardDriver, u, t, one *window, st storeStats) {
	diags := float64(len(t.diags))
	m.set("shard.round_ms_p50", median(d.roundMS))
	m.set("shard.rounds_per_diag", ratio(float64(len(d.roundMS)), diags))
	m.set("shard.busy_pct", 100*ratio(sum(d.roundMS)/1e3, t.wall.Seconds()*float64(d.procs)))
	m.set("shard.lease_ops_per_diag", ratio(float64(st.leaseOps), diags))
	m.set("shard.lease_kb_per_diag", ratio(float64(st.leaseBytes)/1024, diags))
	// Fairness is over each round's per-worker run counts; rounds are
	// identical, so the first one says it all.
	m.set("shard.fairness", jain(d.workerRuns[:d.procs]))
	// Scaling: untraced throughput at P workers over P times the
	// untraced throughput of one worker.
	if one != nil {
		m.set("shard.scaling_eff", ratio(u.opsPerSec(), float64(d.procs)*one.opsPerSec()))
	}
}

// ledgerRow is one line of the latency ledger: the self time of every
// span of one (layer, name) under a diagnosis, per diagnosis, and its
// share of the diagnosis spans. "bench / diagnosis" is what no child
// span covers: waiting, and whatever the seams cannot see.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	Spans    int     `json:"spans"`
	SelfMS   float64 `json:"self_ms_per_diag"`
	SharePct float64 `json:"share_pct"`
}

// latencyLedger attributes the time of the traced diagnoses to the
// layers beneath them by self time. On a serial tree (local_serial) the
// shares add up to 100 %; where children run side by side (two agents,
// two workers) their self times overlap and the shares add up to more.
func latencyLedger(spans []span) []ledgerRow {
	self := selfTimes(spans)
	type key struct{ layer, name string }
	rows := map[key]*ledgerRow{}
	var diags, diagNS float64
	for _, sp := range spans {
		if sp.Diag == 0 {
			continue
		}
		k := key{sp.Layer, sp.Name}
		if sp.ID == sp.Diag {
			k = key{"bench", "diagnosis"}
			diags++
			diagNS += float64(sp.EndNS - sp.StartNS)
		}
		r := rows[k]
		if r == nil {
			r = &ledgerRow{Layer: k.layer, Name: k.name}
			rows[k] = r
		}
		r.Spans++
		r.SelfMS += float64(self[sp.ID]) / 1e6
	}
	out := make([]ledgerRow, 0, len(rows))
	for _, r := range rows {
		r.SharePct = 100 * ratio(r.SelfMS*1e6, diagNS)
		r.SelfMS = ratio(r.SelfMS, diags)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Layer+out[i].Name < out[j].Layer+out[j].Name
	})
	return out
}

// peakRSSMB is the process's peak resident set (VmHWM), 0 where /proc
// does not offer it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
