package shard

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/store"
	"repro/internal/vm"
)

// Assignment is the durable record placing one campaign on the fleet:
// everything a worker needs to build (or resume) the diagnosis.
type Assignment struct {
	Tenant string `json:"tenant"`
	Bug    string `json:"bug"`
	// Key is the campaign key within the tenant (the bug name, refined
	// by "#<signature>" for report submits), matching the service's
	// campaign registry and state layout.
	Key       string `json:"key"`
	Signature string `json:"signature,omitempty"`
	// Shard is the placement hash's verdict, recorded so workers agree
	// on primary ownership without rehashing.
	Shard int `json:"shard"`
	// Report, when non-nil, is the submitted production failure; nil
	// means the owning worker runs discovery itself (deterministic, so
	// the sketch is byte-identical either way).
	Report        *vm.FailureReport `json:"report,omitempty"`
	DiscoveryRuns int               `json:"discovery_runs,omitempty"`
}

// campaign is the assignment's fleet-wide file-safe name.
func (a Assignment) campaign() string { return CampaignName(a.Tenant, a.Key) }

// DoneRecord is one finished diagnosis as published by the worker that
// drove it to completion: the sketch bytes (byte-identical to a
// single-process run) plus the outcome the service surfaces.
type DoneRecord struct {
	Tenant string `json:"tenant"`
	Bug    string `json:"bug"`
	Key    string `json:"key"`
	// Worker records who finished the campaign — observability only;
	// the sketch bytes are worker-independent.
	Worker        string `json:"worker"`
	LowConfidence bool   `json:"low_confidence,omitempty"`
	Restarts      int    `json:"restarts,omitempty"`
	Resumed       bool   `json:"resumed,omitempty"`
	Err           string `json:"err,omitempty"`
	// Sketch is the rendered sketch JSON, byte-identical to the
	// single-process run. Held as []byte (base64 on the wire) rather
	// than json.RawMessage: the record's own marshalling would compact
	// a RawMessage and break byte-identity.
	Sketch []byte `json:"sketch,omitempty"`
}

// Coordinator owns campaign placement: it writes assignment records the
// worker fleet picks up and reads back the done records workers
// publish. It holds no in-memory state a restart could lose — the
// backend is the source of truth, so coordinator death just pauses new
// placements.
type Coordinator struct {
	b       store.Backend
	root    string
	shards  int
	noFsync bool
}

// NewCoordinator opens (creating if needed) a fleet root on b with the
// given shard count.
func NewCoordinator(b store.Backend, root string, shards int, noFsync bool) (*Coordinator, error) {
	if b == nil {
		b = store.DirBackend{}
	}
	if shards <= 0 {
		return nil, fmt.Errorf("shard: coordinator needs a positive shard count, got %d", shards)
	}
	for _, dir := range []string{assignDir(root), LeaseDir(root), doneDir(root), StateRoot(root)} {
		if err := b.EnsureDir(dir); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	return &Coordinator{b: b, root: root, shards: shards, noFsync: noFsync}, nil
}

// Backend returns the shared medium the fleet runs over.
func (c *Coordinator) Backend() store.Backend { return c.b }

// CheckpointRoot is the state root workers checkpoint under — handed to
// the service so its sketch-reload path reads the fleet's stores.
func (c *Coordinator) CheckpointRoot() string { return StateRoot(c.root) }

// Assign places a campaign: compute its shard from the placement hash
// and publish the assignment record durably. Idempotent — re-assigning
// the same campaign rewrites an identical record.
func (c *Coordinator) Assign(a Assignment) (Assignment, error) {
	if a.Tenant == "" || a.Bug == "" {
		return a, fmt.Errorf("shard: assignment needs tenant and bug")
	}
	if a.Key == "" {
		a.Key = a.Bug
	}
	a.Shard = place(a.Tenant, a.Bug, a.Signature, c.shards)
	if err := writeRecord(c.b, filepath.Join(assignDir(c.root), a.campaign()+".assign"), &a, c.noFsync); err != nil {
		return a, err
	}
	return a, nil
}

// Done returns the campaign's finished record, or nil while the fleet
// is still working on it.
func (c *Coordinator) Done(tenant, key string) (*DoneRecord, error) {
	return ReadDone(c.b, c.root, CampaignName(tenant, key))
}

// assignments lists every placed campaign, sorted by campaign name so
// all workers walk the same order. Torn or foreign files are skipped.
func assignments(b store.Backend, root string) ([]Assignment, error) {
	dir := assignDir(root)
	names, err := b.ListFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("shard: assignments: %w", err)
	}
	sort.Strings(names)
	var out []Assignment
	for _, base := range names {
		if !strings.HasSuffix(base, ".assign") {
			continue
		}
		var a Assignment
		if err := readRecord(b, filepath.Join(dir, base), &a); err != nil {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// writeDone publishes a finished diagnosis. Written via atomic rename;
// if a lease-handoff window ever lets two workers finish the same
// campaign, both write the same sketch bytes, so last-write-wins is
// benign.
func writeDone(b store.Backend, root string, rec *DoneRecord, noFsync bool) error {
	return writeRecord(b, filepath.Join(doneDir(root), CampaignName(rec.Tenant, rec.Key)+".done"), rec, noFsync)
}

// ReadDone returns a campaign's done record, or nil when none exists.
func ReadDone(b store.Backend, root string, campaign string) (*DoneRecord, error) {
	path := filepath.Join(doneDir(root), campaign+".done")
	if !b.Exists(path) {
		return nil, nil
	}
	var rec DoneRecord
	if err := readRecord(b, path, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// writeRecord publishes a CRC-framed JSON record via temp + rename.
func writeRecord(b store.Backend, path string, v any, noFsync bool) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	tmp := path + ".tmp"
	if err := b.WriteFile(tmp, store.EncodeFrame(payload), !noFsync); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := b.Rename(tmp, path); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if !noFsync {
		if err := b.SyncDir(filepath.Dir(path)); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
	}
	return nil
}

func readRecord(b store.Backend, path string, v any) error {
	data, err := b.ReadFile(path)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	payload, err := store.DecodeFrame(data)
	if err != nil {
		return fmt.Errorf("shard: %s: %w", path, err)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("shard: %s: %w", path, err)
	}
	return nil
}
