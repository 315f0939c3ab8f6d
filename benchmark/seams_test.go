package main

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/service"
	"repro/internal/store"
)

// The counting Backend around a MemBackend still round-trips a
// store.Open / Save / Latest, counts the bytes through WriteFile and
// ReadFile exactly, and counts nothing with no observer attached.
func TestCountingBackend(t *testing.T) {
	mem := store.NewMemBackend()
	cb := &countingBackend{next: mem, leaseDir: "fleet/lease"}
	open := func() *store.Store {
		st, err := store.Open("state/tenant", "camp", store.Options{Backend: cb, NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	payload := bytes.Repeat([]byte("checkpoint "), 100)
	if _, err := open().Save(payload); err != nil { // unobserved
		t.Fatal(err)
	}
	obs := newObserver()
	cb.obs.Store(obs)
	diag := obs.beginDiag("d", obs.rec.t0, "state/tenant")
	st := open()
	if got := st.Latest(); got == nil || !bytes.Equal(got.Payload, payload) {
		t.Fatal("first generation did not survive a reopen through the counting backend")
	}
	payload2 := bytes.Repeat([]byte("next "), 300)
	gen, err := st.Save(payload2)
	if err != nil {
		t.Fatal(err)
	}
	if got := open().Latest(); got == nil || got.Gen != gen || !bytes.Equal(got.Payload, payload2) {
		t.Fatal("second generation did not round-trip")
	}
	if err := cb.WriteFile("fleet/lease/c.lease", []byte("12345"), false); err != nil {
		t.Fatal(err)
	}
	cb.obs.Store(nil)
	if _, err := open().Save(payload); err != nil { // unobserved again
		t.Fatal(err)
	}

	frame1, frame2 := int64(len(store.EncodeFrame(payload))), int64(len(store.EncodeFrame(payload2)))
	s := obs.store
	if want := frame2 + 5; s.written != want {
		t.Errorf("bytes written = %d, want %d (one frame and one lease)", s.written, want)
	}
	// Two observed opens: the first reads generation 1, the second reads 1 and 2.
	if want := 2*frame1 + frame2; s.read != want {
		t.Errorf("bytes read = %d, want %d", s.read, want)
	}
	if s.leaseOps != 1 || s.leaseBytes != 5 {
		t.Errorf("lease traffic = %d ops / %d bytes, want 1 / 5", s.leaseOps, s.leaseBytes)
	}
	var attributed int64
	for _, sp := range obs.rec.snapshot() {
		if sp.Layer == "store" && sp.Diag == diag {
			attributed++
		}
	}
	if attributed == 0 || s.ops < attributed {
		t.Errorf("%d of %d backend ops attributed to the diagnosis", attributed, s.ops)
	}
}

// The counting RoundTripper's byte totals equal the bodies it forwarded,
// and the caller still reads the full response.
func TestCountingTransport(t *testing.T) {
	var seen int
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		seen += len(body)
		switch r.URL.Path {
		case service.PathPoll:
			if len(body) > 4 {
				w.Write([]byte(`{"task":{"task_id":7}}`))
			} else {
				w.Write([]byte(`{}`))
			}
		default:
			w.Write(bytes.Repeat([]byte("r"), 2*len(body)))
		}
	})
	obs := newObserver()
	diag := obs.beginDiag("d", obs.rec.t0)
	tr := &countingTransport{next: service.LoopbackTransport{Handler: handler}, obs: obs, diag: diag, agent: true}
	post := func(path, body string) string {
		req, err := http.NewRequest(http.MethodPost, "http://gist"+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	sent, got := 0, 0
	for _, c := range []struct{ path, body string }{
		{service.PathSubmit, "0123456789"},
		{service.PathPoll, "{}"},        // empty poll
		{service.PathPoll, "{\"a\":1}"}, // poll that returns a task
		{service.PathUpload, "trace-bytes"},
	} {
		sent += len(c.body)
		got += len(post(c.path, c.body))
	}
	if seen != sent {
		t.Fatalf("handler saw %d request bytes, test sent %d", seen, sent)
	}
	w := &obs.wire
	rpcs, total := w.totals()
	if rpcs != 4 || total != int64(sent+got) {
		t.Errorf("counted %d rpcs / %d bytes, want 4 / %d", rpcs, total, sent+got)
	}
	if ps := w.paths[service.PathSubmit]; ps.reqBytes != 10 || ps.respBytes != 20 || len(ps.ms) != 1 {
		t.Errorf("submit path stat = %+v", ps)
	}
	if w.tasks != 1 || w.emptyPolls != 1 {
		t.Errorf("polls: %d with a task, %d empty; want 1 and 1", w.tasks, w.emptyPolls)
	}
	busy := 0
	for _, sp := range obs.rec.snapshot() {
		if sp.Layer == agentLayer && sp.Diag == diag {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("%d agent task spans, want one from the task poll to the upload", busy)
	}
	if len(w.traceKB) != 1 || w.traceKB[0] != float64(len("trace-bytes"))/1024 {
		t.Errorf("trace sizes = %v", w.traceKB)
	}
}
