package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shard"
	"repro/internal/store"
)

const (
	fleetRoot   = "fleet"
	fleetTenant = "fleet"
	// fleetPoll is how often the driver looks for done records.
	fleetPoll = time.Millisecond
	// fleetIdle is how long a worker with no live campaign waits before
	// it scans the assignments again. All of a round's work is placed
	// before the workers start, so an idle worker is one that is done;
	// a short wait would only add backend scans to the round's tail.
	fleetIdle = 5 * time.Millisecond
	// fleetRoundTimeout ends a round whose campaigns never finish (a
	// dead worker's are only taken over after its leases expire); the
	// missing done records are then reported as failed diagnoses.
	fleetRoundTimeout = time.Minute
)

// shardDriver runs the sharded campaign fleet: per round a fresh
// coordinator and procs in-process workers over one in-memory backend,
// the suite's twelve campaigns placed by hash. Campaigns are
// embarrassingly parallel; bakery leases and a checkpoint every
// iteration are the only coordination, and there is no wire.
type shardDriver struct {
	s     *suite
	procs int

	// Figures of the traced rounds so far, for the shard layer's metrics.
	roundMS    []float64 // one per Worker.Round that stepped a campaign
	workerRuns []float64 // one per worker and round: runs it executed
}

func (d *shardDriver) round(obs *observer) roundResult {
	mem := store.NewMemBackend()
	var backend store.Backend = mem
	if obs != nil {
		cb := &countingBackend{next: mem, leaseDir: shard.LeaseDir(fleetRoot)}
		cb.obs.Store(obs)
		backend = cb
	}
	var r roundResult
	fatal := func(err error) roundResult {
		r.attempted += len(d.s.cases)
		for range d.s.cases {
			r.fail(err)
		}
		return r
	}
	coord, err := shard.NewCoordinator(backend, fleetRoot, d.procs, true)
	if err != nil {
		return fatal(err)
	}
	workers := make([]*shard.Worker, d.procs)
	for i := range workers {
		opts := shard.WorkerOptions{
			Backend: backend, Root: fleetRoot, Index: i, Shards: d.procs,
			Width: 1, NoFsync: true, ConfigFor: d.s.configFor(1),
		}
		if obs != nil {
			opts.Telemetry = obs.tel
		}
		if workers[i], err = shard.NewWorker(opts); err != nil {
			return fatal(err)
		}
	}

	runs := obs.runExec()
	watch := startWatch()
	assigned := make([]time.Time, len(d.s.cases))
	diags := make([]int, len(d.s.cases))
	for _, i := range d.s.order {
		c := d.s.cases[i]
		assigned[i] = time.Now()
		diags[i] = obs.beginDiag(c.bug.Name, assigned[i],
			shard.CampaignName(fleetTenant, c.bug.Name), "/"+fleetTenant+"/"+c.bug.Name+".")
		if _, err := coord.Assign(shard.Assignment{
			Tenant: fleetTenant, Bug: c.bug.Name, Report: c.report, DiscoveryRuns: c.disc,
		}); err != nil {
			return fatal(err)
		}
	}

	var stop atomic.Bool
	var dead atomic.Int32
	var wg sync.WaitGroup
	werrs := make([]error, d.procs)       // read after wg.Wait
	roundMS := make([][]float64, d.procs) // likewise
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *shard.Worker) {
			defer wg.Done()
			for !stop.Load() {
				t0 := time.Now()
				live, err := w.Round()
				t1 := time.Now()
				if err != nil {
					werrs[i] = err
					dead.Add(1)
					return
				}
				if obs != nil && live > 0 {
					obs.rec.add(0, 0, "shard", "round", t0, t1, 0)
					roundMS[i] = append(roundMS[i], float64(t1.Sub(t0).Nanoseconds())/1e6)
				}
				if live == 0 {
					time.Sleep(fleetIdle)
				}
			}
		}(i, w)
	}

	// The driver reads done records from the bare backend, so its own
	// polling is not counted as store traffic.
	records := make([]*shard.DoneRecord, len(d.s.cases))
	took := make([]time.Duration, len(d.s.cases))
	for pending := len(records); pending > 0; {
		for i, c := range d.s.cases {
			if records[i] != nil {
				continue
			}
			rec, err := shard.ReadDone(mem, fleetRoot, shard.CampaignName(fleetTenant, c.bug.Name))
			if err != nil || rec == nil {
				continue
			}
			now := time.Now()
			records[i], took[i] = rec, now.Sub(assigned[i])
			obs.endDiag(diags[i], now, len(rec.Sketch))
			pending--
		}
		if int(dead.Load()) == d.procs || time.Since(watch.start) > fleetRoundTimeout {
			break
		}
		if pending > 0 {
			time.Sleep(fleetPoll)
		}
	}
	r.wall, r.stolen = watch.stop()
	stop.Store(true)
	wg.Wait()
	r.executed = -1
	if obs != nil {
		r.executed = obs.runExec() - runs
		for i, w := range workers {
			d.workerRuns = append(d.workerRuns, float64(w.Stats().Runs))
			d.roundMS = append(d.roundMS, roundMS[i]...)
		}
	}

	for i, c := range d.s.cases {
		rec := records[i]
		var st diagStat
		var err error
		switch {
		case rec == nil:
			err = fmt.Errorf("no done record (worker errors: %v)", werrs)
		case rec.Err != "":
			err = fmt.Errorf("worker %s: %s", rec.Worker, rec.Err)
		default:
			st, err = snapshotStat(mem, shard.StateRoot(fleetRoot), c, fleetTenant, c.bug.Name)
		}
		var sketch []byte
		if rec != nil {
			sketch = rec.Sketch
		}
		r.diagnosed(c, sketch, err, took[i], st)
	}
	return r
}

func (d *shardDriver) close() {}
