package supervise_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/supervise"
)

// TestOldCheckpointResumes resumes a checkpoint generation written by an
// earlier build (`gist diagnose -bug pbzip2 -full -max-iters 2
// -checkpoint-dir D`), whose sketch still carries the instr_set key and
// whose iteration stats a TrackedLines field, and runs it to the end. The
// snapshot version did not change when those keys went: decoding ignores
// them, and the finished sketch must be byte-identical to an
// uninterrupted diagnosis.
func TestOldCheckpointResumes(t *testing.T) {
	const gen = "pbzip2.g00000003.ckpt"
	data, err := os.ReadFile("testdata/" + gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"instr_set"`, `"TrackedLines"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Fatalf("fixture has no %s key; it no longer pins what it exists for", key)
		}
	}
	b := store.NewMemBackend()
	if err := b.WriteFile("ckpt/"+gen, data, false); err != nil {
		t.Fatal(err)
	}
	cfg := bugs.ByName("pbzip2").GistConfig()
	camp, err := supervise.Resume(cfg, openStore(t, b, "pbzip2"))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if camp.Iteration() != 2 || camp.Finished() {
		t.Fatalf("resumed at iteration %d (finished=%v), want the unfinished boundary after 2", camp.Iteration(), camp.Finished())
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatalf("resumed diagnosis: %v", err)
	}
	want, err := core.RunFromReport(cfg, nil, 0)
	if err != nil {
		t.Fatalf("uninterrupted diagnosis: %v", err)
	}
	got, _ := res.Sketch.MarshalIndentJSON()
	wantJSON, _ := want.Sketch.MarshalIndentJSON()
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("resumed sketch differs from the uninterrupted one:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, wantJSON)
	}
}
