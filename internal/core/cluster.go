package core

import "repro/internal/vm"

// FailureCluster groups production failures that share a failure identity
// (failing program counter + stack trace + fault kind) — the grouping a
// Windows-Error-Reporting-style collector performs before a diagnosis is
// launched per cluster (§7's WER discussion). One Gist diagnosis is run
// per cluster, not per crash.
type FailureCluster struct {
	ID     string
	Report *vm.FailureReport
	// Count is how many observed failures matched this cluster.
	Count int
	// Seeds are the run seeds that produced the failures (capped).
	Seeds []int64
}

// Admit folds one observed failure into the cluster: the recurrence
// count always grows, the seed list only up to the cap. This is the
// admission rule of the streaming ingestion front-end, whose clusters
// embed this type.
func (c *FailureCluster) Admit(seed int64, maxSeeds int) {
	c.Count++
	if len(c.Seeds) < maxSeeds {
		c.Seeds = append(c.Seeds, seed)
	}
}
