// Package shard scales campaign ownership across worker processes.
//
// The paper's deployment is one Gist server driving the whole endpoint
// fleet; this layer makes campaign *placement* explicit so the control
// plane can go horizontal. A coordinator assigns each campaign — one
// (tenant, bug, signature) diagnosis stream — to a shard by FNV hash,
// and worker processes claim ownership of assigned campaigns through
// lease records. The only medium shared between processes is a
// store.Backend: a DirBackend on a shared directory in production, a
// MemBackend in tests. Everything a worker needs to drive a campaign —
// the assignment record, the lease table, the generation-numbered
// checkpoint store, the finished-sketch record — lives under one root
// on that backend:
//
//	<root>/assign/  one record per placed campaign
//	<root>/lease/   ownership claims (see lease.go)
//	<root>/state/   per-tenant checkpoint stores (internal/store)
//	<root>/done/    finished diagnoses (sketch bytes + outcome)
//
// The safety invariant is the one every layer of this repo pins: a
// diagnosis is a pure function of its configuration and seed cursor, so
// a campaign resumed by another worker from the last durable checkpoint
// generation — or even briefly double-driven during a lease handoff —
// produces sketches byte-identical to the undisturbed single-process
// run.
package shard

import (
	"hash/fnv"
	"path/filepath"
	"strings"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// place maps a campaign identity to a shard index in [0, shards). The
// hash is FNV-64a over the NUL-joined identity, so placement is stable
// across processes, restarts, and Go versions.
func place(tenant, bug, sig string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(bug))
	h.Write([]byte{0})
	h.Write([]byte(sig))
	return int(h.Sum64() % uint64(shards))
}

// Layout helpers: every process derives the same paths from the root.

// assignDir is where the coordinator's placement records live.
func assignDir(root string) string { return filepath.Join(root, "assign") }

// LeaseDir is where workers' ownership claims live.
func LeaseDir(root string) string { return filepath.Join(root, "lease") }

// doneDir is where finished diagnoses land.
func doneDir(root string) string { return filepath.Join(root, "done") }

// StateRoot is the checkpoint-store root workers open campaign stores
// under (see OpenCampaignStore).
func StateRoot(root string) string { return filepath.Join(root, "state") }

// Sanitize maps a tenant or campaign label to a safe path segment.
func Sanitize(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, label)
}

// CampaignName is the fleet-wide file-safe name of one campaign: the
// sanitized tenant and campaign key joined so assignment, lease, and
// done records for the same diagnosis always collide on the same name.
func CampaignName(tenant, key string) string {
	return Sanitize(tenant) + "__" + Sanitize(key)
}

// OpenCampaignStore opens one campaign's checkpoint store at
// <stateRoot>/<Sanitize(tenant)>/<Sanitize(key)> — the one state layout
// the service, the shard workers and the sketch-reload path share, so
// each resumes or serves what another checkpointed.
func OpenCampaignStore(b store.Backend, stateRoot, tenant, key string, noFsync bool, tel *telemetry.Tracer) (*store.Store, error) {
	return store.Open(filepath.Join(stateRoot, Sanitize(tenant)), Sanitize(key), store.Options{
		Backend:   b,
		NoFsync:   noFsync,
		Telemetry: tel,
	})
}
