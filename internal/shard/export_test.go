package shard

// Supervised reports how many campaigns the worker's supervisor still
// holds, live or settled.
func (w *Worker) Supervised() int { return len(w.sup.Outcomes()) }
