package main

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// coreMaxIters is core's default iteration budget (Config.MaxIters = 0
// means 12). Campaign.Step enforces it; a benchmark that steps the
// stages itself has to as well.
const coreMaxIters = 12

// localDriver diagnoses the suite in process through
// core.RunFromReport, one diagnosis at a time: the pipeline with nothing
// around it. workers is core.Config.Workers, the width of the fleet
// inside one campaign — 1 on local_serial, the client count on
// local_wide, where speculative dispatch and ordered admission come in.
type localDriver struct {
	s       *suite
	workers int
}

func (d *localDriver) round(obs *observer) roundResult {
	var r roundResult
	runs := obs.runExec()
	watch := startWatch()
	for _, i := range d.s.order {
		c := d.s.cases[i]
		cfg := c.cfg
		cfg.Workers = d.workers
		if obs != nil {
			cfg.Telemetry = obs.tel
		}
		t0 := time.Now()
		diag := obs.beginDiag(c.bug.Name, t0)
		var res *core.Result
		var err error
		if obs != nil && d.workers == 1 {
			res, err = stepCampaign(obs, diag, cfg, c)
		} else {
			res, err = core.RunFromReport(cfg, c.report, c.disc)
		}
		var sketch []byte
		var st diagStat
		if err == nil {
			sketch, err = res.Sketch.MarshalIndentJSON()
			st = statOf(c, res)
		}
		t1 := time.Now()
		obs.endDiag(diag, t1, len(sketch))
		r.diagnosed(c, sketch, err, t1.Sub(t0), st)
	}
	r.wall, r.stolen = watch.stop()
	r.executed = -1
	if obs != nil {
		r.executed = obs.runExec() - runs
	}
	return r
}

// stepCampaign is core.Campaign.Run with a span around each of the five
// exported stages and, through the Runner seam, around each run.
func stepCampaign(obs *observer, diag int, cfg core.Config, c *bugCase) (*core.Result, error) {
	camp, err := core.NewCampaign(cfg, c.report, c.disc)
	if err != nil {
		return nil, err
	}
	runner := &spanRunner{obs: obs, diag: diag}
	camp.UseRunner(runner)
	stage := func(name string, f func()) {
		id := obs.rec.open(diag, diag, "core", name, time.Now())
		runner.parent = id
		f()
		obs.rec.finish(id, time.Now(), 0)
	}
	for done := false; !done; {
		if camp.Iteration() >= coreMaxIters {
			return nil, fmt.Errorf("campaign still unfinished after %d iterations", coreMaxIters)
		}
		stage("plan", camp.Plan)
		stage("dispatch", camp.Dispatch)
		stage("admit", camp.Admit)
		stage("rank", camp.Rank)
		stage("decide", func() { done = camp.Decide() })
	}
	return camp.Result()
}

func (d *localDriver) close() {}
