package main

import (
	"bytes"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// gist runs the dispatcher in-process.
func gist(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// flagsOf returns the flag names `gist <mode> -h` prints, sorted.
func flagsOf(t *testing.T, mode string) []string {
	t.Helper()
	code, stdout, stderr := gist(mode, "-h")
	if code != 0 || stderr != "" {
		t.Fatalf("gist %s -h = exit %d, stderr %q; want 0 and help on stdout", mode, code, stderr)
	}
	if !strings.HasPrefix(stdout, "usage: gist "+mode+" ") {
		t.Errorf("gist %s -h starts %q", mode, strings.SplitN(stdout, "\n", 2)[0])
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stdout, -1) {
		names = append(names, m[1])
	}
	sort.Strings(names)
	return names
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"help"}, {"-h"}, {"bogus"},
		// The pre-subcommand spellings are gone, not aliased.
		{"-list"}, {"-bug", "pbzip2"}, {"-serve"}, {"-agent"}, {"-submit"}, {"-worker"}, {"-serve", "-coordinator"}} {
		code, stdout, stderr := gist(args...)
		if code != 2 || stdout != "" {
			t.Errorf("gist %v = exit %d, stdout %q; want 2 and usage on stderr", args, code, stdout)
		}
		rows := regexp.MustCompile(`(?m)^  (\w+) `).FindAllStringSubmatch(stderr, -1)
		var names []string
		for _, r := range rows {
			names = append(names, r[1])
		}
		if want := []string{"list", "diagnose", "serve", "worker", "agent", "submit"}; !reflect.DeepEqual(names, want) {
			t.Errorf("gist %v lists subcommands %v, want %v", args, names, want)
		}
	}
}

// TestHelpListsOnlyTheModesFlags pins each subcommand's flag set — a mode
// shows no flag it does not read — and the knob count: 39 names in all.
func TestHelpListsOnlyTheModesFlags(t *testing.T) {
	want := map[string]string{
		"list": "",
		"diagnose": "bug checkpoint-dir ckpt-fsync fault-rate fault-seed features full iter-delay json " +
			"max-iters metrics-json pprof-addr resume run-deadline sigma0 trace-out v workers",
		"serve": "ckpt-fsync drain-wait hedge-after ingest-cache-bytes launch-budget lease listen max-inflight " +
			"poll-timeout shards state-dir tenant-burst tenant-rps",
		"worker": "ckpt-fsync iter-delay lease shards state-dir worker-id workers",
		"agent":  "agent-id agent-poll rpc-deadline server tenant transport-fault-rate transport-fault-seed",
		"submit": "bug deadline rpc-deadline server tenant transport-fault-rate transport-fault-seed",
	}
	all := map[string]bool{}
	for _, c := range commands {
		got := flagsOf(t, c.name)
		if g := strings.Join(got, " "); g != want[c.name] {
			t.Errorf("gist %s -h lists\n  %s\nwant\n  %s", c.name, g, want[c.name])
		}
		for _, n := range got {
			all[n] = true
		}
	}
	if len(commands) != len(want) || len(all) != 39 {
		t.Errorf("%d subcommands with %d distinct flag names, want %d and 39", len(commands), len(all), len(want))
	}
}

// TestRejections: every configuration a mode refuses exits 2 before any
// work starts, with a message naming the flag at fault. The serve, agent
// and worker rows are the rejection rows of the options structs' own
// validator tables (internal/service/flags_test.go, shard_test.go), here
// driven through the flags bound into those structs.
func TestRejections(t *testing.T) {
	const (
		agent  = "agent -server http://127.0.0.1:8443 "
		submit = "submit -server http://127.0.0.1:8443 -bug pbzip2 "
		worker = "worker -worker-id 2 -shards 3 "
	)
	cases := []struct{ args, want string }{
		{"serve -listen=", "-listen"},
		{"serve -listen 127.0.0.1", "-listen"},
		{"serve -listen 8443", "-listen"},
		{"serve -state-dir=", "-state-dir"},
		{"serve -lease 0", "-lease"},
		{"serve -lease -1s", "-lease"},
		{"serve -poll-timeout 0", "-poll-timeout"},
		{"serve -ingest-cache-bytes -1", "-ingest-cache-bytes"},
		{"serve -tenant-rps -1", "-tenant-rps"},
		{"serve -tenant-rps 2.5 -tenant-burst -1", "-tenant-burst"},
		{"serve -tenant-burst 10", "-tenant-burst"},
		{"serve -max-inflight -1", "-max-inflight"},
		{"serve -launch-budget -1", "-launch-budget"},
		{"serve -launch-budget 32", "-launch-budget"},
		{"serve -hedge-after -1s", "-hedge-after"},
		{"serve -shards -1", "-shards"},
		{"serve -drain-wait -1s", "-drain-wait"},

		{"agent", "-server"},
		{"agent -server 127.0.0.1:8443", "-server"},
		{agent + "-tenant=", "-tenant"},
		{agent + "-agent-id=", "-agent-id"},
		{agent + "-agent-poll 0", "-agent-poll"},
		{agent + "-agent-poll -1s", "-agent-poll"},
		{agent + "-rpc-deadline 0", "-rpc-deadline"},
		{agent + "-rpc-deadline 1s", "-rpc-deadline"}, // under the default -agent-poll 2s
		{agent + "-transport-fault-rate -0.01", "-transport-fault-rate"},
		{agent + "-transport-fault-rate 2", "-transport-fault-rate"},

		{"submit -bug pbzip2", "-server"},
		{"submit -server http://127.0.0.1:8443", "-bug"},
		{"submit -server http://127.0.0.1:8443 -bug bogus", "-bug"},
		{submit + "-tenant=", "-tenant"},
		{submit + "-rpc-deadline 0", "-rpc-deadline"},
		{submit + "-deadline -1s", "-deadline"},
		{submit + "-transport-fault-rate 1.1", "-transport-fault-rate"},

		{"worker -worker-id 1 -shards 0", "-shards"},
		{"worker -worker-id 1 -shards -4", "-shards"},
		{"worker -shards 3", "-worker-id"},
		{"worker -worker-id -1 -shards 3", "-worker-id"},
		{"worker -worker-id 4 -shards 3", "-worker-id"},
		{worker + "-state-dir=", "-state-dir"},
		{worker + "-lease 0", "-lease"},
		{worker + "-lease -1s", "-lease"},
		{worker + "-workers -1", "-workers"},
		{worker + "-iter-delay -1s", "-iter-delay"},

		{"diagnose", "-bug"},
		{"diagnose -bug bogus", "-bug"},
		{"diagnose -bug pbzip2 -sigma0 0", "-sigma0"},
		{"diagnose -bug pbzip2 -workers -1", "-workers"},
		{"diagnose -bug pbzip2 -max-iters -1", "-max-iters"},
		{"diagnose -bug pbzip2 -run-deadline -1", "-run-deadline"},
		{"diagnose -bug pbzip2 -fault-rate 1.5", "-fault-rate"},
		{"diagnose -bug pbzip2 -fault-rate -0.1", "-fault-rate"},
		{"diagnose -bug pbzip2 -resume", "-resume"},
		{"diagnose -bug pbzip2 -iter-delay -1s", "-iter-delay"},
		{"diagnose -bug pbzip2 -features cf,bogus", "-features"},
		{"diagnose pbzip2", "unexpected argument"},
		{"list pbzip2", "unexpected argument"},

		// A flag of another mode is undefined, not silently ignored.
		{"agent -lease 5s", "not defined: -lease"},
		{"serve -transport-fault-rate 0.1", "not defined: -transport-fault-rate"},
		{"serve -bug pbzip2", "not defined: -bug"},
		{"serve -tenant x", "not defined: -tenant"},
		{"serve -coordinator -shards 3", "not defined: -coordinator"},
		{"submit -agent-poll 1s", "not defined: -agent-poll"},
		{"serve -sigma0 4", "not defined: -sigma0"},
		{"worker -fault-rate 0.1", "not defined: -fault-rate"},
		{"agent -max-iters 3", "not defined: -max-iters"},
		{"list -bug pbzip2", "not defined: -bug"},
		{"diagnose -bug pbzip2 -engine interp", "not defined: -engine"}, // one engine; the oracle is test-only
	}
	for _, tc := range cases {
		code, stdout, stderr := gist(strings.Fields(tc.args)...)
		if code != 2 || stdout != "" {
			t.Errorf("gist %s = exit %d, stdout %q; want exit 2 and nothing printed", tc.args, code, stdout)
		}
		if !strings.Contains(stderr, tc.want) || !strings.HasPrefix(stderr, "gist "+strings.Fields(tc.args)[0]+": ") {
			t.Errorf("gist %s says %q, want a line naming %s", tc.args, stderr, tc.want)
		}
	}
}
