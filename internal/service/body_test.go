package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/slicer"
)

// refReadBody is the read readBody replaced, kept as its reference.
func refReadBody(r io.Reader, limit int64) ([]byte, error) {
	return io.ReadAll(io.LimitReader(r, limit))
}

var errCut = errors.New("connection cut")

// bodyReader serves body in the way mode picks: 0 ends with io.EOF,
// 1 with errCut, 2 hands over the last bytes together with io.EOF, 3 one
// byte per read, 4 at most half of each buffer.
func bodyReader(body []byte, mode uint8) io.Reader {
	switch mode % 5 {
	case 1:
		return io.MultiReader(bytes.NewReader(body), iotest.ErrReader(errCut))
	case 2:
		return iotest.DataErrReader(bytes.NewReader(body))
	case 3:
		return iotest.OneByteReader(bytes.NewReader(body))
	case 4:
		return iotest.HalfReader(bytes.NewReader(body))
	}
	return bytes.NewReader(body)
}

// FuzzReadBody holds readBody to io.ReadAll(io.LimitReader(r, limit))
// for any body, declared length and limit: the same bytes and the same
// error. Whatever the declared length, the read allocates within a few
// times the body, plus the first buffer a declared length buys, which is
// at most firstBodyRead: neither 2⁴⁰ nor maxBodyBytes declared buys a
// buffer of that size.
func FuzzReadBody(f *testing.F) {
	body := []byte(`{"tenant":"acme","agent":"a1","wait_ms":200}`)
	n := int64(len(body))
	for _, declared := range []int64{-1, 0, n - 1, n, n + 1, maxBodyBytes + 1, 1 << 40} {
		for _, limit := range []int64{maxBodyBytes + 1, math.MaxInt64, n, n / 2} {
			for mode := uint8(0); mode < 5; mode++ {
				f.Add(body, declared, limit, mode)
			}
		}
	}
	f.Add(bytes.Repeat([]byte{'x'}, 5000), int64(100), int64(maxBodyBytes+1), uint8(0))
	f.Add([]byte{}, int64(-1), int64(0), uint8(0))
	f.Add(body, int64(maxBodyBytes), int64(maxBodyBytes+1), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, declared, limit int64, mode uint8) {
		want, wantErr := refReadBody(bodyReader(body, mode), limit)
		got, err := readBody(bodyReader(body, mode), declared, limit)
		if !bytes.Equal(got, want) || err != wantErr {
			t.Fatalf("readBody(%d bytes, declared %d, limit %d, mode %d) = %d bytes, %v; the reference %d bytes, %v",
				len(body), declared, limit, mode, len(got), err, len(want), wantErr)
		}
		budget := 8*uint64(len(body)) + 4096
		if declared >= 0 && declared <= limit {
			budget += uint64(min(declared+1, firstBodyRead))
		}
		// MemStats counts every goroutine's allocations, and under -fuzz
		// the engine's run beside this one: the least of three reads is
		// this read's own.
		used := uint64(math.MaxUint64)
		for range 3 {
			r := bodyReader(body, mode)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			readBody(r, declared, limit)
			runtime.ReadMemStats(&after)
			used = min(used, after.TotalAlloc-before.TotalAlloc)
		}
		if used > budget {
			t.Fatalf("reading %d bytes declaring %d allocated %d bytes, over the %d-byte budget", len(body), declared, used, budget)
		}
	})
}

// TestRPCAllocations bounds what a wire call allocates end to end over
// LoopbackTransport (client and server together): an upload of a
// recorded apache-2 run, and an empty poll. The request body is read
// into one buffer of its declared size, and the client sends through
// its RoundTripper with no http.Client in between.
func TestRPCAllocations(t *testing.T) {
	cfg := bugs.ByName("apache-2").GistConfig()
	report, _, err := core.FirstFailure(cfg)
	if err != nil {
		t.Fatalf("discovery: %v", err)
	}
	g := cfg.BuildGraph()
	plan := core.BuildPlan(g, slicer.Compute(g, report.InstrID).Window(8), core.AllFeatures())

	s := NewServer(Options{PollTimeout: time.Millisecond})
	defer s.Close()
	tk := enqueueTask(s, "acme", "apache-2")
	tk.spec.PreemptMean, tk.spec.MaxSteps = cfg.PreemptMean, 200_000
	up := &UploadRequest{Tenant: "acme", Agent: "a1", TaskID: tk.id, Trace: EncodeTrace(core.RecordRun(plan, tk.spec, faults.Decision{}))}
	wire, _ := json.Marshal(up)

	c := NewClient(ClientOptions{BaseURL: "http://gist", Tenant: "acme", Actor: "a1", Transport: LoopbackTransport{Handler: s.Handler()}})
	ctx := context.Background()
	// The first upload admits the run; AllocsPerRun's warm-up call makes
	// it, so the counted ones are the duplicates an agent's retry sends.
	upload := testing.AllocsPerRun(200, func() {
		var resp UploadResponse
		if err := c.Call(ctx, PathUpload, up, &resp); err != nil || !resp.Accepted {
			t.Fatalf("upload: %v (%+v)", err, resp)
		}
	})
	poll := testing.AllocsPerRun(100, func() {
		var resp PollResponse
		if err := c.Call(ctx, PathPoll, &PollRequest{Tenant: "idle", Agent: "a1", WaitMs: 1}, &resp); err != nil || resp.Task != nil {
			t.Fatalf("empty poll: %v (%+v)", err, resp)
		}
	})
	// Through an http.Client reading with io.ReadAll these read 78 and 54
	// (85 and 56 under the race detector, whose sync.Pools drop items);
	// this code reads 64 and 48 (72 and 50).
	if upload > 74 {
		t.Errorf("an upload of %d bytes made %.0f allocations, want at most 74", len(wire), upload)
	}
	if poll > 52 {
		t.Errorf("an empty poll made %.0f allocations, want at most 52", poll)
	}
}

// TestRepliesDeclareTheirLength: a JSON reply too long for the HTTP
// server to size by itself crosses a real socket with its length
// declared, not chunked, so the client reads it into one buffer. The
// 5,000-byte bug name comes back in the 400's error text.
func TestRepliesDeclareTheirLength(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(&SubmitRequest{Tenant: "acme", Bug: strings.Repeat("b", 5000)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+PathSubmit, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || len(reply) < 5000 {
		t.Fatalf("submit naming a 5,000-byte bug got %d with %d bytes, want a 400 echoing the name", resp.StatusCode, len(reply))
	}
	if resp.ContentLength != int64(len(reply)) || resp.TransferEncoding != nil {
		t.Fatalf("%d-byte reply arrived with ContentLength %d, TransferEncoding %v; want its length declared, unchunked",
			len(reply), resp.ContentLength, resp.TransferEncoding)
	}
}
