package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// workloadNames is the fixed list later issues cite; BENCHMARK.json
// carries the reason each exists.
var workloadNames = []string{"local_serial", "local_wide", "service_loopback", "recurrence_storm", "shard_fleet"}

// diagStat is what one finished diagnosis reports about itself, read
// from core.Result or from the campaign's last checkpoint.
type diagStat struct {
	c            *bugCase
	recurrences  int
	runsAdmitted int
	overheadPct  float64
	iters        int
}

func statOf(c *bugCase, res *core.Result) diagStat {
	return diagStat{c: c, recurrences: res.FailureRecurrences, runsAdmitted: res.TotalRuns,
		overheadPct: res.AvgOverheadPct, iters: len(res.Iters)}
}

func statOfSnapshot(c *bugCase, snap *core.CampaignSnapshot) diagStat {
	return diagStat{c: c, recurrences: snap.FailureRecurrences, runsAdmitted: snap.TotalRuns,
		overheadPct: snap.AvgOverheadPct, iters: len(snap.Iters)}
}

// roundResult is one round of a workload: 12 diagnoses, or on
// recurrence_storm one batch of client operations.
type roundResult struct {
	wall      time.Duration // measured time; verification and teardown excluded
	stolen    float64       // CPU-seconds the hypervisor took from the VM during wall
	lat       []float64     // ms, one per successful primary operation
	ops       int           // operations completed, primary or not
	attempted int
	failed    int
	errs      []string
	fetchMS   []float64 // recurrence_storm only: sketch fetch latencies
	// executed is the number of production runs executed for diags,
	// wasted speculative ones included, or -1 where only the pipeline's
	// tracer can count them and none is attached.
	executed int64
	// diags are the diagnoses behind the sketches this round delivered:
	// the round's own, or on recurrence_storm the twelve of its set-up.
	diags []diagStat
}

// fail counts one failed operation; only the first few messages are
// kept, the count is exact.
func (r *roundResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// diagnosed records one diagnosis outcome: a failed one contributes no
// latency sample and is reported, never dropped.
func (r *roundResult) diagnosed(c *bugCase, sketch []byte, err error, took time.Duration, st diagStat) {
	r.attempted++
	if err == nil {
		err = c.check(sketch)
	}
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", c.bug.Name, err))
		return
	}
	r.ops++
	r.lat = append(r.lat, float64(took.Nanoseconds())/1e6)
	r.diags = append(r.diags, st)
}

// driver is one workload's load generator. round runs one closed-loop
// round, traced when obs is non-nil.
type driver interface {
	round(obs *observer) roundResult
	close()
}

// window is a run of whole rounds.
type window struct {
	roundResult
	rounds int
	// Per-round figures. The box is shared and its disturbances come in
	// bursts of a round or two, so the window's throughput and latency
	// percentiles are medians over these, not pooled over the window.
	// Each is the round's figure at zero steal (steal.go); the raw
	// medians are kept beside them for the reader.
	roundRate, roundP50, roundP90 []float64
	rawRate, rawP50               float64
	stealKappa                    float64
	allocBytes                    uint64
	gcPauseNS                     uint64
}

// measure runs whole rounds until `seconds` have been measured (at least
// one round). Work comes in whole rounds so that per-diagnosis counts
// repeat exactly whatever the window length.
func measure(d driver, obs *observer, seconds float64) window {
	var w window
	var m0, m1 runtime.MemStats
	var secs, stolen []float64
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for w.rounds == 0 || w.wall.Seconds() < seconds {
		r := d.round(obs)
		w.rounds++
		secs = append(secs, r.wall.Seconds())
		stolen = append(stolen, r.stolen)
		w.stolen += r.stolen
		w.roundRate = append(w.roundRate, float64(r.ops)/r.wall.Seconds())
		w.roundP50 = append(w.roundP50, pct(r.lat, 50))
		w.roundP90 = append(w.roundP90, pct(r.lat, 90))
		w.wall += r.wall
		w.lat = append(w.lat, r.lat...)
		w.ops += r.ops
		w.attempted += r.attempted
		w.failed += r.failed
		if len(w.errs) < 5 {
			w.errs = append(w.errs, r.errs...)
		}
		w.fetchMS = append(w.fetchMS, r.fetchMS...)
		w.diags = append(w.diags, r.diags...)
		if r.executed < 0 || w.executed < 0 {
			w.executed = -1
		} else {
			w.executed += r.executed
		}
	}
	runtime.ReadMemStats(&m1)
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs

	w.rawRate, w.rawP50 = median(w.roundRate), median(w.roundP50)
	var own []float64
	w.stealKappa, own = steadied(secs, stolen)
	for i, o := range own {
		w.roundRate[i] /= o
		w.roundP50[i] *= o
		w.roundP90[i] *= o
	}
	return w
}

// stealPct is the share of the VM's cores the hypervisor took away
// during the window.
func (w *window) stealPct() float64 {
	return 100 * ratio(w.stolen, w.wall.Seconds()*float64(runtime.NumCPU()))
}

// opsPerSec is the window's throughput: the median round's rate at zero
// steal.
func (w *window) opsPerSec() float64 { return median(w.roundRate) }

// meanStat averages f over the suite's bugs. Rounds repeat the same
// diagnoses, so each bug contributes the median of its figures (exactly
// the figure, when they agree) and the bugs are added in suite order:
// the result is then bit-equal from run to run, whatever the window
// length and the seed's visiting order.
func (w *window) meanStat(f func(diagStat) float64) float64 {
	perBug := map[int][]float64{}
	n := 0
	for _, d := range w.diags {
		perBug[d.c.index] = append(perBug[d.c.index], f(d))
		n = max(n, d.c.index+1)
	}
	var total float64
	for i := 0; i < n; i++ {
		total += median(perBug[i])
	}
	return ratio(total, float64(len(perBug)))
}

// newDriver builds the workload's own environment on top of the common
// set-up; its cost is part of setup_s.
func newDriver(name string, s *suite) (driver, error) {
	switch name {
	case "local_serial":
		return &localDriver{s: s, workers: 1}, nil
	case "local_wide":
		return &localDriver{s: s, workers: s.clients}, nil
	case "service_loopback":
		return newServiceDriver(s, 0), nil
	case "recurrence_storm":
		return newStormDriver(s)
	case "shard_fleet":
		return &shardDriver{s: s, procs: s.clients}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
