package shard

// Supervised reports how many campaigns the worker's supervisor still
// holds, live or settled.
func (w *Worker) Supervised() int { return len(w.sup.Outcomes()) }

// Place is the placement hash, for tests that pick a tenant by the
// shard it lands on.
var Place = place
