package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// observer is the traced pass: the span recorder, the pipeline's own
// tracer (read through core.Config.Telemetry, never extended), and the
// totals of the two counting seams. Everything is measured from outside
// the program; a nil observer means the untraced pass, where none of
// the seams below is installed.
type observer struct {
	rec *recorder
	tel *telemetry.Tracer

	mu     sync.Mutex
	tokens map[string]int // path fragment -> diagnosis id
	wire   wireStats
	store  storeStats
}

func newObserver() *observer {
	return &observer{rec: newRecorder(), tel: telemetry.New(), tokens: map[string]int{}}
}

// beginDiag opens the root span of one diagnosis; the span id doubles as
// the diagnosis id every descendant carries. tokens are the fragments
// (tenant name, campaign name) by which backend paths are attributed to
// this diagnosis.
func (o *observer) beginDiag(name string, start time.Time, tokens ...string) int {
	if o == nil {
		return 0
	}
	id := o.rec.open(0, rootDiag, "bench", name, start)
	o.mu.Lock()
	for _, t := range tokens {
		o.tokens[t] = id
	}
	o.mu.Unlock()
	return id
}

func (o *observer) endDiag(id int, end time.Time, bytes int) {
	if o != nil {
		o.rec.finish(id, end, int64(bytes))
	}
}

// runExec is the number of runs executed so far by the pipeline's own
// run_exec spans — the only count that includes speculative runs
// ordered admission threw away.
func (o *observer) runExec() int64 {
	if o == nil {
		return 0
	}
	return o.tel.Snapshot().Phases[telemetry.PhaseRunExec].Count
}

// diagOf attributes a backend path to the diagnosis whose token it
// contains; unattributed operations (directory scans) get diagnosis 0.
func (o *observer) diagOf(path string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	for t, d := range o.tokens {
		if strings.Contains(path, t) {
			return d
		}
	}
	return 0
}

// ---- wire seam ---------------------------------------------------------

// pathStat is one wire path's traffic.
type pathStat struct {
	n                   int64
	reqBytes, respBytes int64
	ms                  []float64
}

// wireStats is what the counting RoundTrippers of one traced pass saw.
type wireStats struct {
	paths      map[string]*pathStat
	tasks      int64 // polls that came back with a task
	emptyPolls int64
	taskKB     []float64
	traceKB    []float64
}

func (w *wireStats) path(p string) *pathStat {
	if w.paths == nil {
		w.paths = map[string]*pathStat{}
	}
	ps := w.paths[p]
	if ps == nil {
		ps = &pathStat{}
		w.paths[p] = ps
	}
	return ps
}

func (w *wireStats) totals() (rpcs, bytes int64) {
	for _, ps := range w.paths {
		rpcs += ps.n
		bytes += ps.reqBytes + ps.respBytes
	}
	return
}

// agentLayer is the layer of the spans in which an agent holds a task.
const agentLayer = "service.agent"

// countingTransport is an http.RoundTripper that forwards to next and
// records, per wire path, the request count, the body bytes both ways
// and the latency the client saw. One is created per wire client, so it
// knows which diagnosis its traffic belongs to without parsing bodies.
type countingTransport struct {
	next http.RoundTripper
	obs  *observer
	diag int
	// agent marks an agent's client: the time between a poll response
	// carrying a task and the upload request for it — the only time
	// anybody computes for the diagnosis — is recorded as a span.
	agent bool

	mu       sync.Mutex
	busyFrom time.Time // set while the agent holds a task
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	path := req.URL.Path
	if t.agent && path == service.PathUpload {
		t.mu.Lock()
		from := t.busyFrom
		t.busyFrom = time.Time{}
		t.mu.Unlock()
		if !from.IsZero() {
			t.obs.rec.add(t.diag, t.diag, agentLayer, "task", from, start, 0)
		}
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	end := time.Now()
	reqBytes := max(req.ContentLength, 0)

	hasTask := path == service.PathPoll && bytes.Contains(body, []byte(`"task":`))
	if t.agent && hasTask {
		t.mu.Lock()
		t.busyFrom = end
		t.mu.Unlock()
	}
	t.obs.mu.Lock()
	w := &t.obs.wire
	ps := w.path(path)
	ps.n++
	ps.reqBytes += reqBytes
	ps.respBytes += int64(len(body))
	ps.ms = append(ps.ms, float64(end.Sub(start).Nanoseconds())/1e6)
	switch {
	case hasTask:
		w.tasks++
		w.taskKB = append(w.taskKB, float64(len(body))/1024)
	case path == service.PathPoll:
		w.emptyPolls++
	case path == service.PathUpload:
		w.traceKB = append(w.traceKB, float64(reqBytes)/1024)
	}
	t.obs.mu.Unlock()
	t.obs.rec.add(t.diag, t.diag, "service", path, start, end, reqBytes+int64(len(body)))
	return resp, nil
}

// ---- store seam --------------------------------------------------------

// storeStats is what the counting Backend saw while an observer was
// attached. lease* is the subset of operations under the shard fleet's
// lease directory.
type storeStats struct {
	ops, written, read   int64
	busyNS               int64
	leaseOps, leaseBytes int64
}

// countingBackend decorates a store.Backend: with an observer attached
// it counts every operation, the bytes through WriteFile and ReadFile,
// and the time spent inside the backend; with none it only forwards.
// The service's backend is fixed at NewServer, so the untraced window
// and the traced pass share one server and differ only in the pointer.
type countingBackend struct {
	next     store.Backend
	obs      atomic.Pointer[observer]
	leaseDir string // operations under it are counted as lease traffic too
}

func (b *countingBackend) op(name, path string, bytes int, start time.Time) {
	o := b.obs.Load()
	if o == nil {
		return
	}
	end := time.Now()
	lease := b.leaseDir != "" && strings.HasPrefix(path, b.leaseDir)
	o.mu.Lock()
	s := &o.store
	s.ops++
	s.busyNS += end.Sub(start).Nanoseconds()
	switch name {
	case "write":
		s.written += int64(bytes)
	case "read":
		s.read += int64(bytes)
	}
	if lease {
		s.leaseOps++
		s.leaseBytes += int64(bytes)
	}
	o.mu.Unlock()
	layer := "store"
	if lease {
		layer = "shard"
	}
	diag := o.diagOf(path)
	o.rec.add(diag, diag, layer, name, start, end, int64(bytes))
}

func (b *countingBackend) EnsureDir(dir string) error {
	start := time.Now()
	err := b.next.EnsureDir(dir)
	b.op("ensure_dir", dir, 0, start)
	return err
}

func (b *countingBackend) ListFiles(dir string) ([]string, error) {
	start := time.Now()
	names, err := b.next.ListFiles(dir)
	b.op("list", dir, 0, start)
	return names, err
}

func (b *countingBackend) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	data, err := b.next.ReadFile(path)
	b.op("read", path, len(data), start)
	return data, err
}

func (b *countingBackend) WriteFile(path string, data []byte, sync bool) error {
	start := time.Now()
	err := b.next.WriteFile(path, data, sync)
	b.op("write", path, len(data), start)
	return err
}

func (b *countingBackend) Rename(oldPath, newPath string) error {
	start := time.Now()
	err := b.next.Rename(oldPath, newPath)
	b.op("rename", newPath, 0, start)
	return err
}

func (b *countingBackend) Remove(path string) error {
	start := time.Now()
	err := b.next.Remove(path)
	b.op("remove", path, 0, start)
	return err
}

func (b *countingBackend) Exists(path string) bool {
	start := time.Now()
	ok := b.next.Exists(path)
	b.op("exists", path, 0, start)
	return ok
}

func (b *countingBackend) SyncDir(dir string) error {
	start := time.Now()
	err := b.next.SyncDir(dir)
	b.op("sync_dir", dir, 0, start)
	return err
}

// ---- run seam ----------------------------------------------------------

// spanRunner is a core.Runner that executes each dispatched run in
// process, one after another, and records a span around it. It is used
// on local_serial only, where the fleet is serial anyway; local_wide
// keeps the real speculative fleet.
type spanRunner struct {
	obs    *observer
	diag   int
	parent int // the campaign stage span currently open
}

func (r *spanRunner) RunBatch(plan *core.Plan, jobs []core.RunJob) []*core.RunTrace {
	out := make([]*core.RunTrace, len(jobs))
	for i, job := range jobs {
		start := time.Now()
		out[i] = core.RunInstrumentedFaults(plan, job.Spec, job.Dec)
		r.obs.rec.add(r.parent, r.diag, "core", "run", start, time.Now(), 0)
	}
	return out
}
