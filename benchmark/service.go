package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hw/pt"
	"repro/internal/service"
	"repro/internal/service/agent"
	"repro/internal/shard"
	"repro/internal/store"
)

const (
	serverURL      = "http://gist" // never dialled: every client rides the loopback transport
	agentsPerDiag  = 2
	stateRoot      = "state"
	stormTenant    = "storm"
	stormFoldShare = 10 // one operation in stormFoldShare is a sketch fetch, the rest are folds
	stormBatch     = 10000
	// serverBallast stands in for the state a diagnosis server holds in
	// production (tenants, task tables, up to 2^20 latency samples per
	// path). Without it the benchmark's server has a 3 MiB live heap and
	// the collector runs a hundred times a second, which no deployment
	// sees and which makes every timing on the service workloads jump.
	serverBallast = 64 << 20
)

// serviceDriver diagnoses through one service.Server on the loopback
// transport: wire, service, agents, sched/supervise and the checkpoint
// store are all on the blocking path. Every diagnosis runs on a fresh
// tenant (dedup is per tenant, so a known tenant would fold the report
// instead of diagnosing it) with its own agents.
type serviceDriver struct {
	s       *suite
	srv     *service.Server
	backend *countingBackend
	loop    service.LoopbackTransport

	ctx     context.Context
	cancel  context.CancelFunc
	agents  sync.WaitGroup
	tenant  atomic.Int64
	ballast []byte
}

// newServiceDriver starts the server. Faults, hedging, rate limits and
// fsync are off. cacheBytes is the sketch cache budget (0 = the server's
// default, large enough to hold everything).
func newServiceDriver(s *suite, cacheBytes int64) *serviceDriver {
	d := &serviceDriver{s: s, backend: &countingBackend{next: store.NewMemBackend()}, ballast: make([]byte, serverBallast)}
	d.srv = service.NewServer(service.Options{
		Backend:          d.backend,
		StateRoot:        stateRoot,
		LeaseTTL:         5 * time.Second,
		PollTimeout:      100 * time.Millisecond,
		NoFsync:          true,
		SketchCacheBytes: cacheBytes,
		// The campaign keeps one iteration's worth of tasks per agent in
		// flight (core sizes speculation from Workers).
		ConfigFor: s.configFor(agentsPerDiag),
	})
	d.loop = service.LoopbackTransport{Handler: d.srv.Handler()}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	return d
}

// transport is the wire a client of the given diagnosis uses: the bare
// loopback, or in the traced pass the counting decorator around it.
func (d *serviceDriver) transport(obs *observer, diag int, isAgent bool) http.RoundTripper {
	if obs == nil {
		return d.loop
	}
	return &countingTransport{next: d.loop, obs: obs, diag: diag, agent: isAgent}
}

func (d *serviceDriver) client(obs *observer, diag int, tenant string) *service.Client {
	return service.NewClient(service.ClientOptions{
		BaseURL: serverURL, Tenant: tenant, Actor: "submitter",
		Transport: d.transport(obs, diag, false),
	})
}

// startAgents starts n agents for the tenant and returns once each has
// registered (an agent's first log line is its registration), plus the
// function that stops them. Stopped agents finish their parked poll in
// the background; close waits for them.
func (d *serviceDriver) startAgents(obs *observer, diag int, tenant string, n int) (stop func(), err error) {
	ctx, cancel := context.WithCancel(d.ctx)
	registered := make(chan struct{}, n)
	failed := make(chan error, n)
	for i := 0; i < n; i++ {
		var once sync.Once
		ag, err := agent.New(agent.Config{
			Server: serverURL, Tenant: tenant, ID: fmt.Sprintf("a%d", i),
			Poll:      50 * time.Millisecond,
			Transport: d.transport(obs, diag, true),
			Logf:      func(string, ...any) { once.Do(func() { registered <- struct{}{} }) },
		})
		if err != nil {
			cancel()
			return nil, err
		}
		d.agents.Add(1)
		go func() {
			defer d.agents.Done()
			if err := ag.Run(ctx); err != nil {
				failed <- err
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-registered:
		case err := <-failed:
			cancel()
			return nil, err
		}
	}
	return cancel, nil
}

// diagnose hands one failure report in and waits for the sketch bytes:
// submit, wait for the campaign, fetch /v1/sketch.
func (d *serviceDriver) diagnose(obs *observer, diag int, c *bugCase, tenant string) (sketch []byte, sig string, err error) {
	cli := d.client(obs, diag, tenant)
	var sub service.SubmitResponse
	err = cli.Call(d.ctx, service.PathSubmit, &service.SubmitRequest{
		Tenant: tenant, Bug: c.bug.Name, Report: c.report, DiscoveryRuns: c.disc,
	}, &sub)
	if err != nil {
		return nil, "", err
	}
	if sub.Duplicate {
		return nil, "", fmt.Errorf("first report of tenant %s was folded as a duplicate", tenant)
	}
	if !d.srv.WaitCampaignSig(tenant, c.bug.Name, sub.Signature) {
		return nil, "", fmt.Errorf("campaign %s/%s vanished", tenant, c.bug.Name)
	}
	var sk service.SketchResponse
	req := &service.SketchRequest{Tenant: tenant, Bug: c.bug.Name, Signature: sub.Signature}
	if err := cli.Call(d.ctx, service.PathSketch, req, &sk); err != nil {
		return nil, "", err
	}
	if !sk.Ready {
		var st service.StatusResponse
		_ = cli.Call(d.ctx, service.PathStatus, &service.StatusRequest{Tenant: tenant, Bug: c.bug.Name, Signature: sub.Signature}, &st)
		return nil, "", fmt.Errorf("campaign finished without a sketch (state=%s err=%q)", st.State, st.Err)
	}
	return sk.Sketch, sub.Signature, nil
}

// snapshotStat reads a finished campaign's last checkpoint from a
// state root laid out as the service and the shard workers lay it out.
func snapshotStat(b store.Backend, root string, c *bugCase, tenant, key string) (diagStat, error) {
	ckpt, err := store.Open(filepath.Join(root, shard.Sanitize(tenant)), shard.Sanitize(key),
		store.Options{Backend: b, NoFsync: true})
	if err != nil {
		return diagStat{}, err
	}
	latest := ckpt.Latest()
	if latest == nil {
		return diagStat{}, fmt.Errorf("%s/%s: no checkpoint generation", tenant, key)
	}
	snap, err := core.DecodeCampaignSnapshot(latest.Payload)
	if err != nil {
		return diagStat{}, err
	}
	return statOfSnapshot(c, snap), nil
}

// round runs the suite once: the client goroutines draw bugs from a
// shared cursor, each diagnosis closed-loop on its own fresh tenant.
func (d *serviceDriver) round(obs *observer) roundResult {
	type outcome struct {
		c      *bugCase
		tenant string
		sig    string
		sketch []byte
		took   time.Duration
		err    error
	}
	d.backend.obs.Store(obs)
	uploads := d.uploads()
	outs := make([]outcome, len(d.s.order))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	watch := startWatch()
	for w := 0; w < d.s.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(cursor.Add(1)) - 1
				if k >= len(outs) {
					return
				}
				o := &outs[k]
				o.c = d.s.cases[d.s.order[k]]
				o.tenant = fmt.Sprintf("d%07d", d.tenant.Add(1))
				diag := obs.beginDiag(o.c.bug.Name, time.Now(), o.tenant)
				stop, err := d.startAgents(obs, diag, o.tenant, agentsPerDiag)
				if err != nil {
					o.err = err
					continue
				}
				t0 := time.Now()
				o.sketch, o.sig, o.err = d.diagnose(obs, diag, o.c, o.tenant)
				t1 := time.Now()
				o.took = t1.Sub(t0)
				obs.endDiag(diag, t1, len(o.sketch))
				stop()
			}
		}()
	}
	wg.Wait()
	wall, stolen := watch.stop()
	r := roundResult{wall: wall, stolen: stolen, executed: d.uploads() - uploads}
	d.backend.obs.Store(nil)
	for _, o := range outs {
		var st diagStat
		if o.err == nil {
			st, o.err = snapshotStat(d.backend.next, stateRoot, o.c, o.tenant, o.c.bug.Name+"#"+o.sig)
		}
		r.diagnosed(o.c, o.sketch, o.err, o.took, st)
	}
	return r
}

// uploads is the server's own count of admitted uploads: every run an
// agent executed and delivered, needed by the campaign or not.
func (d *serviceDriver) uploads() int64 {
	c, _ := d.srv.Snapshot()
	return c.Uploads
}

func (d *serviceDriver) close() {
	d.cancel()
	d.agents.Wait()
	d.srv.Close()
}

// stormDriver is the same server used the other way: admission and
// reads, no campaigns. Its set-up diagnoses the suite's twelve
// signatures once on one tenant; the measured window is then duplicate
// reports of those signatures (folds) and sketch fetches, against a
// sketch cache half the size of the twelve sketches, so about half the
// fetches re-render from the checkpoint store.
type stormDriver struct {
	*serviceDriver
	sigs      []string // by case index
	setup     []diagStat
	setupRuns int64
	batch     int          // operations per client and round
	streams   []*rand.Rand // one per client, continuing across rounds
	folds     atomic.Int64 // reports folded so far, also the Seed of the next
}

func newStormDriver(s *suite) (*stormDriver, error) {
	d := &stormDriver{
		serviceDriver: newServiceDriver(s, int64(s.sketchBytes()/2)),
		sigs:          make([]string, len(s.cases)),
		batch:         stormBatch,
	}
	stop, err := d.startAgents(nil, 0, stormTenant, agentsPerDiag*s.clients)
	if err != nil {
		d.close()
		return nil, err
	}
	errs := make([]error, len(s.cases))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(s.cases) {
					return
				}
				var sketch []byte
				sketch, d.sigs[i], errs[i] = d.diagnose(nil, 0, s.cases[i], stormTenant)
				if errs[i] == nil {
					errs[i] = s.cases[i].check(sketch)
				}
			}
		}()
	}
	wg.Wait()
	// The agents must be gone before the window opens: a parked poll is
	// wire traffic the storm did not send.
	stop()
	d.agents.Wait()
	for i, c := range s.cases {
		if errs[i] != nil {
			d.close()
			return nil, fmt.Errorf("storm set-up %s: %w", c.bug.Name, errs[i])
		}
		st, err := snapshotStat(d.backend.next, stateRoot, c, stormTenant, c.bug.Name+"#"+d.sigs[i])
		if err != nil {
			d.close()
			return nil, fmt.Errorf("storm set-up %s: %w", c.bug.Name, err)
		}
		d.setup = append(d.setup, st)
	}
	d.setupRuns = d.uploads()
	for w := 0; w < s.clients; w++ {
		d.streams = append(d.streams, rand.New(rand.NewSource(s.seed*1009+int64(w))))
	}
	return d, nil
}

// round sends d.batch operations per client, closed-loop. The primary
// operation, whose latency the end-to-end percentiles report, is the
// duplicate-report submit; fetch latencies are kept apart.
func (d *stormDriver) round(obs *observer) roundResult {
	d.backend.obs.Store(obs)
	decodes := pt.Snapshot().DecodeCalls
	parts := make([]roundResult, d.s.clients)
	var wg sync.WaitGroup
	watch := startWatch()
	for w := range parts {
		wg.Add(1)
		go func(r *roundResult, rng *rand.Rand) {
			defer wg.Done()
			cli := d.client(obs, 0, stormTenant)
			for n := 0; n < d.batch; n++ {
				i := rng.Intn(len(d.s.cases))
				fetch := rng.Intn(stormFoldShare) == 0
				r.attempted++
				t0 := time.Now()
				var err error
				if fetch {
					err = d.fetch(cli, i)
				} else {
					err = d.fold(cli, i)
				}
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				switch {
				case err != nil:
					r.fail(err)
				case fetch:
					r.ops++
					r.fetchMS = append(r.fetchMS, ms)
				default:
					r.ops++
					r.lat = append(r.lat, ms)
				}
			}
		}(&parts[w], d.streams[w])
	}
	wg.Wait()
	wall, stolen := watch.stop()
	r := roundResult{wall: wall, stolen: stolen, diags: d.setup, executed: d.setupRuns}
	d.backend.obs.Store(nil)
	for _, p := range parts {
		r.lat = append(r.lat, p.lat...)
		r.fetchMS = append(r.fetchMS, p.fetchMS...)
		r.ops += p.ops
		r.attempted += p.attempted
		r.failed += p.failed
		r.errs = append(r.errs, p.errs...)
	}
	// The bypass prediction is checked, not assumed: a window of folds
	// and fetches executes no production run.
	if n := pt.Snapshot().DecodeCalls - decodes; n != 0 {
		r.attempted++
		r.fail(fmt.Errorf("recurrence_storm executed production runs in its window (%d PT decodes)", n))
	}
	return r
}

// fold submits one more report of a diagnosed signature; the server must
// fold it into the finished campaign's evidence.
func (d *stormDriver) fold(cli *service.Client, i int) error {
	c := d.s.cases[i]
	var sub service.SubmitResponse
	err := cli.Call(d.ctx, service.PathSubmit, &service.SubmitRequest{
		Tenant: stormTenant, Bug: c.bug.Name, Report: c.report,
		Seed: d.folds.Add(1), DiscoveryRuns: c.disc,
	}, &sub)
	if err != nil {
		return err
	}
	if !sub.Duplicate || sub.Signature != d.sigs[i] {
		return fmt.Errorf("%s: recurrence was not folded into its signature", c.bug.Name)
	}
	return nil
}

// fetch reads one finished sketch, from the cache or re-rendered from
// the checkpoint store, and checks its bytes.
func (d *stormDriver) fetch(cli *service.Client, i int) error {
	c := d.s.cases[i]
	var sk service.SketchResponse
	err := cli.Call(d.ctx, service.PathSketch, &service.SketchRequest{
		Tenant: stormTenant, Bug: c.bug.Name, Signature: d.sigs[i],
	}, &sk)
	if err != nil {
		return err
	}
	if !sk.Ready {
		return fmt.Errorf("%s: finished sketch not ready", c.bug.Name)
	}
	return c.check(sk.Sketch)
}
