package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Self time on a hand-built tree: a diagnosis [0,100] with a stage
// [10,70] that holds two overlapping runs [20,40] and [30,60], and a
// second stage [70,90]; one backend op hangs off nothing.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 70},
		{ID: 3, Parent: 2, StartNS: 20, EndNS: 40},
		{ID: 4, Parent: 2, StartNS: 30, EndNS: 60},
		{ID: 5, Parent: 1, StartNS: 70, EndNS: 90},
		{ID: 6, Parent: 0, StartNS: 5, EndNS: 15},
		{ID: 7, Parent: 5, StartNS: 60, EndNS: 95}, // child sticking out of its parent is clipped
	}
	want := map[int]int64{
		1: 100 - 60 - 20, // minus both stages
		2: 60 - 40,       // runs overlap on [30,40]: covered [20,60], not 20+30
		3: 20, 4: 30,
		5: 0, // fully covered by the clipped child
		6: 10,
		7: 35,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestRecorderAndJSONL(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.add(0, 0, "x", "y", time.Now(), time.Now(), 0); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	nilRec.finish(1, time.Now(), 0)

	r := newRecorder()
	root := r.open(0, rootDiag, "bench", "diag", r.t0)
	child := r.add(root, root, "core", "plan", r.t0.Add(time.Millisecond), r.t0.Add(3*time.Millisecond), 7)
	r.finish(root, r.t0.Add(10*time.Millisecond), 42)
	spans := r.snapshot()
	if len(spans) != 2 || spans[0].Diag != root || spans[1].Parent != root || spans[1].ID != child {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if spans[0].EndNS != 10e6 || spans[0].Bytes != 42 || spans[1].EndNS-spans[1].StartNS != 2e6 {
		t.Fatalf("unexpected times %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := writeJSONL(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var back []span
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if len(back) != 2 || back[0] != spans[0] || back[1] != spans[1] {
		t.Fatalf("JSONL round trip: wrote %+v, read %+v", spans, back)
	}
}
