package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/service"
)

// mustParse runs one mode's parse half on args.
func mustParse[C any](t *testing.T, parse func(*flag.FlagSet, []string) (C, error), args string) C {
	t.Helper()
	cfg, err := parse(newFlagSet("test"), strings.Fields(args))
	if err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	return cfg
}

// TestFlagsBindIntoOptions: what a mode parses is the struct it hands to
// its constructor, defaults included.
func TestFlagsBindIntoOptions(t *testing.T) {
	sv := mustParse(t, parseServe, "")
	if o := sv.opts; sv.listen != "127.0.0.1:8443" || sv.shards != 0 || sv.drainWait != 30*time.Second ||
		o.StateRoot != "state" || o.LeaseTTL != 10*time.Second || o.PollTimeout != 5*time.Second || o.NoFsync || o.Backend == nil {
		t.Errorf("serve defaults = %+v", sv)
	}
	sv = mustParse(t, parseServe, "-listen :9 -shards 3 -state-dir fleet -lease 2s -ckpt-fsync=false -ingest-cache-bytes 1 "+
		"-tenant-rps 2.5 -tenant-burst 10 -max-inflight 8 -launch-budget 32 -hedge-after 2s")
	if o := sv.opts; sv.listen != ":9" || sv.shards != 3 || o.StateRoot != "fleet" || o.LeaseTTL != 2*time.Second ||
		!o.NoFsync || o.SketchCacheBytes != 1 || o.TenantRPS != 2.5 || o.TenantBurst != 10 || o.MaxInflight != 8 ||
		o.LaunchBudget != 32 || o.HedgeAfter != 2*time.Second {
		t.Errorf("serve flags = %+v", sv)
	}

	wk := mustParse(t, parseWorker, "-worker-id 2 -shards 3 -state-dir fleet -lease 2s -workers 4 -iter-delay 300ms -ckpt-fsync=false")
	if wk.Index != 1 || wk.Shards != 3 || wk.Root != "fleet" || wk.LeaseTTL != 2*time.Second || wk.Width != 4 ||
		wk.RoundDelay != 300*time.Millisecond || !wk.NoFsync {
		t.Errorf("worker flags = %+v", wk)
	}

	ag := mustParse(t, parseAgent, "-server http://h:1 -tenant t1 -agent-id ep -agent-poll 200ms -transport-fault-rate 0.3 -transport-fault-seed 7")
	if ag.Server != "http://h:1" || ag.Tenant != "t1" || ag.ID != "ep" || ag.Poll != 200*time.Millisecond ||
		ag.RPCDeadline != 30*time.Second || ag.Faults != faults.Transport(7, 0.3) {
		t.Errorf("agent flags = %+v", ag)
	}
	if ag = mustParse(t, parseAgent, "-server http://h:1"); ag.Faults.Enabled() || !strings.HasPrefix(ag.ID, "agent-") {
		t.Errorf("agent defaults = %+v", ag)
	}

	// submit has no -agent-poll for its -rpc-deadline to be compared with:
	// the parent refused this line.
	sb := mustParse(t, parseSubmit, "-server http://h:1 -bug pbzip2 -rpc-deadline 1s -deadline 2m")
	if c := sb.client; c.BaseURL != "http://h:1" || c.Tenant != "default" || c.Actor != "submitter" || c.Deadline != time.Second ||
		c.Faults.Enabled() || sb.bug != "pbzip2" || sb.deadline != 2*time.Minute {
		t.Errorf("submit flags = %+v", sb)
	}
}

// TestDiagnoseConfigIsTheBugsConfig: with no knob turned, what `diagnose
// -full` runs on is field for field the library's configuration of the
// bug — the one the service and the shard workers use — and each knob
// lands in its field.
func TestDiagnoseConfigIsTheBugsConfig(t *testing.T) {
	for _, b := range bugs.All() {
		c := mustParse(t, parseDiagnose, "-full -bug "+b.Name)
		want := b.GistConfig()
		want.Sigma0 = 2 // the flag's default, and the library's
		if !reflect.DeepEqual(c.cfg, want) {
			t.Errorf("%s: diagnose -full runs on\n  %+v\nthe library on\n  %+v", b.Name, c.cfg, want)
		}
	}
	c := mustParse(t, parseDiagnose,
		"-bug curl -sigma0 4 -features cf,df -workers 3 -max-iters 2 -run-deadline 9 -fault-rate 0.7 -fault-seed 5 -ckpt-fsync=false")
	if g := c.cfg; g.Sigma0 != 4 || g.Features != (core.Features{ControlFlow: true, DataFlow: true}) || g.Workers != 3 ||
		g.MaxIters != 2 || g.RunDeadlineSteps != 9 ||
		g.Faults != faults.Composite(5, 0.7) || g.StopWhen == nil || !c.noFsync {
		t.Errorf("diagnose flags = %+v", c)
	}
}

// TestRunsInProcess: list and diagnose write what the library computes.
func TestRunsInProcess(t *testing.T) {
	code, stdout, stderr := gist("list")
	if lines := strings.Split(strings.TrimSpace(stdout), "\n"); code != 0 || stderr != "" || len(lines) != 1+len(bugs.All()) {
		t.Fatalf("gist list = exit %d, stderr %q, %d lines", code, stderr, len(lines))
	}
	for _, b := range bugs.All() {
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(b.Name) + ` +` + regexp.QuoteMeta(b.Software)).MatchString(stdout) {
			t.Errorf("gist list has no row for %s", b.Name)
		}
	}

	cfg, err := bugs.ConfigFor("pbzip2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Sketch.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = gist("diagnose", "-bug", "pbzip2", "-full", "-json")
	if code != 0 || stderr != "" || stdout != string(want)+"\n" {
		t.Errorf("gist diagnose -bug pbzip2 -full -json = exit %d, stderr %q; stdout differs from core.Run's sketch: %v",
			code, stderr, stdout != string(want)+"\n")
	}
	// Without -full the developer oracle stops the campaign early; text
	// output ends with the accuracy line and the fix.
	code, stdout, _ = gist("diagnose", "-bug", "pbzip2", "-json")
	if code != 0 || !strings.HasPrefix(stdout, "{") {
		t.Errorf("gist diagnose -bug pbzip2 -json = exit %d, stdout %.40q", code, stdout)
	}
	code, stdout, _ = gist("diagnose", "-bug", "pbzip2", "-v")
	if b := bugs.ByName("pbzip2"); code != 0 || !strings.Contains(stdout, "iteration 1: sigma=2") ||
		!strings.HasSuffix(stdout, "How developers fixed it: "+b.Fix+"\n") {
		t.Errorf("gist diagnose -bug pbzip2 -v = exit %d, stdout ends %q", code, stdout[max(0, len(stdout)-80):])
	}
	// A run that cannot diagnose exits 1; resuming from nothing exits 2.
	if code, _, stderr := gist("diagnose", "-bug", "pbzip2", "-run-deadline", "1"); code != 1 || !strings.Contains(stderr, "did not recur") {
		t.Errorf("starved diagnosis = exit %d, stderr %q; want 1", code, stderr)
	}
	if code, _, stderr := gist("diagnose", "-bug", "pbzip2", "-checkpoint-dir", t.TempDir(), "-resume"); code != 2 || !strings.Contains(stderr, "-resume: no valid checkpoint") {
		t.Errorf("resume from an empty dir = exit %d, stderr %q; want 2", code, stderr)
	}
}

// TestCheckpointResumeInProcess: a campaign capped at two iterations with
// a checkpoint directory resumes to the bytes of the uninterrupted run.
func TestCheckpointResumeInProcess(t *testing.T) {
	dir := t.TempDir()
	_, want, _ := gist("diagnose", "-bug", "pbzip2", "-full")
	if code, _, stderr := gist("diagnose", "-bug", "pbzip2", "-full", "-max-iters", "2", "-checkpoint-dir", dir); code != 0 {
		t.Fatalf("capped run = exit %d, stderr %q", code, stderr)
	}
	code, got, stderr := gist("diagnose", "-bug", "pbzip2", "-full", "-checkpoint-dir", dir, "-resume")
	if code != 0 || got != want {
		t.Errorf("resumed run = exit %d, stderr %q; output equals the uninterrupted run's: %v", code, stderr, got == want)
	}
}

// TestDiagnoseTelemetry: a checkpointed diagnose with -trace-out and
// -metrics-json writes one span event per line and a snapshot holding the
// pipeline's phases and the flat fleet/store counters — and nothing else.
func TestDiagnoseTelemetry(t *testing.T) {
	dir := t.TempDir()
	trace, metrics := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.json")
	code, stdout, stderr := gist("diagnose", "-bug", "deadlock", "-max-iters", "1",
		"-checkpoint-dir", filepath.Join(dir, "ck"), "-trace-out", trace, "-metrics-json", metrics)
	m := regexp.MustCompile(`across (\d+) production runs`).FindStringSubmatch(stdout)
	if code != 0 || m == nil {
		t.Fatalf("diagnose = exit %d, stderr %q, stdout %.200q", code, stderr, stdout)
	}
	totalRuns, _ := strconv.ParseInt(m[1], 10, 64)

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events := 0
	for sc := bufio.NewScanner(f); sc.Scan(); events++ {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if _, labeled := ev["campaign"]; ev["ev"] != "span" || labeled {
			t.Errorf("trace line %q: want an unlabeled span event", sc.Text())
		}
	}
	if events == 0 {
		t.Error("trace has no events")
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Phases            map[string]json.RawMessage `json:"phases"`
		Counters          map[string]int64           `json:"counters"`
		Campaigns, Gauges json.RawMessage
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Campaigns != nil || snap.Gauges != nil {
		t.Errorf("metrics snapshot has a campaigns or gauges key: %s", data)
	}
	for _, ph := range []string{"ticfg_build", "slice", "plan_build", "fleet_collect", "rank", "sketch_render"} {
		if _, ok := snap.Phases[ph]; !ok {
			t.Errorf("metrics snapshot lacks phase %s", ph)
		}
	}
	if got := snap.Counters["fleet.dispatched"]; got != totalRuns {
		t.Errorf("fleet.dispatched = %d, want the run's %d production runs", got, totalRuns)
	}
	if snap.Counters["store.saves"] < 1 {
		t.Errorf("store.saves = %d, want at least 1", snap.Counters["store.saves"])
	}
}

// TestSubmitStopsOnLostCampaign: a server that restarted under a submit
// answers "unknown" for good, and a drained one "drained" until its
// listener closes; submit gives up with exit 1 instead of polling forever.
func TestSubmitStopsOnLostCampaign(t *testing.T) {
	for _, state := range []string{service.StateUnknown, service.StateDrained} {
		mux := http.NewServeMux()
		mux.HandleFunc(service.PathSubmit, func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "{}") })
		mux.HandleFunc(service.PathStatus, func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, `{"state":%q}`, state)
		})
		c := mustParse(t, parseSubmit, "-server http://gist -bug pbzip2")
		c.client.Transport = service.LoopbackTransport{Handler: mux}
		var stderr bytes.Buffer
		done := make(chan int, 1)
		go func() { done <- runSubmit(c, io.Discard, &stderr) }()
		select {
		case code := <-done:
			if msg := stderr.String(); code != 1 || !strings.Contains(msg, state) || !strings.Contains(msg, "resubmit") {
				t.Errorf("submit against a %s campaign = exit %d, stderr %q; want 1 naming the state and resubmit", state, code, msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("submit still polling a %s campaign after 10s", state)
		}
	}
}
