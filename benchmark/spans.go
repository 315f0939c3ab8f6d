package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark saw at a layer boundary. Spans of
// one diagnosis share Diag; Parent is the span that caused this one (0
// for a root). Times are nanoseconds since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Diag    int    `json:"diag"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes"`
}

// recorder keeps spans in memory until the run ends (choosing-metrics
// §4). A nil recorder records nothing, so boundary code can call it
// unconditionally.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// rootDiag as a span's diag makes the span the root of a new diagnosis:
// its own id becomes the diagnosis id its descendants carry.
const rootDiag = -1

// add records a finished span and returns its id.
func (r *recorder) add(parent, diag int, layer, name string, start, end time.Time, bytes int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	if diag == rootDiag {
		diag = id
	}
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Diag: diag, Layer: layer, Name: name,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(), Bytes: bytes,
	})
	return id
}

// open records a span whose end is not known yet, so children started
// meanwhile can name it as their parent; close it with finish.
func (r *recorder) open(parent, diag int, layer, name string, start time.Time) int {
	return r.add(parent, diag, layer, name, start, start, 0)
}

func (r *recorder) finish(id int, end time.Time, bytes int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].EndNS = end.Sub(r.t0).Nanoseconds()
	r.spans[id-1].Bytes = bytes
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its direct children cover. Overlapping children (two
// agents of one diagnosis working at once) are merged first, so covered
// time is never counted twice and self time is never negative.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.EndNS - s.StartNS) - coveredNS(s.StartNS, s.EndNS, children[s.ID])
	}
	return self
}

// coveredNS is the length of the union of the spans' intervals clipped
// to [lo, hi].
func coveredNS(lo, hi int64, spans []span) int64 {
	ivs := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNS, lo), min(s.EndNS, hi)
		if b > a {
			ivs = append(ivs, [2]int64{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered, end int64
	end = lo
	for _, iv := range ivs {
		if iv[1] <= end {
			continue
		}
		covered += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return covered
}

// writeJSONL writes the spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
