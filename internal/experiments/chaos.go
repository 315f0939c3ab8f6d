package experiments

import (
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faults"
)

// Chaos sweep: the robustness evaluation the paper's clean-room setup
// never needed. Gist's clients are production endpoints, so the server
// must survive a fleet that crashes, hangs, overflows its PT buffers,
// corrupts traces, and drops traps. The sweep re-runs the diagnosis
// under increasing composite fault rates and reports what happens to
// sketch accuracy and recurrence latency.

// ChaosRates are the default composite fault rates swept (0–30%).
var ChaosRates = []float64{0, 0.05, 0.10, 0.20, 0.30}

// ChaosRow is one (bug, fault-rate) cell of the chaos table.
type ChaosRow struct {
	Bug  string
	Rate float64

	// Accuracy is the overall sketch accuracy vs. the ideal (0 when no
	// sketch was produced).
	Accuracy float64
	// Recurrences / TotalRuns measure diagnosis latency; faults inflate
	// TotalRuns because lost runs must be re-seeded.
	Recurrences int
	TotalRuns   int
	// Health is the diagnosis-wide fleet-health summary.
	Health core.FleetHealth
	// LowConfidence reports the final sketch's quorum annotation.
	LowConfidence bool
	// Err marks a diagnosis that did not converge at this fault rate.
	Err bool
}

// DiagnoseFaulty runs the full pipeline on one bug with a composite
// fault rate spread across every fault class, deterministically from
// seed.
func DiagnoseFaulty(b *bugs.Bug, rate float64, seed int64) (*core.Result, error) {
	cfg := b.GistConfig()
	cfg.Features = core.AllFeatures()
	cfg.StopWhen = bugs.DeveloperOracle(b)
	cfg.Faults = faults.Composite(seed, rate)
	return core.Run(cfg)
}

// ChaosSuite is the default chaos subset: the three bugs whose sketches
// the paper prints, so degradation is judged against known-good output.
func ChaosSuite() []*bugs.Bug {
	return Suite("pbzip2", "curl", "apache-3")
}

// Chaos runs the sweep. A failed diagnosis is a data point, not an
// error: the whole purpose is to see where the pipeline degrades.
func Chaos(suite []*bugs.Bug, rates []float64) []ChaosRow {
	if suite == nil {
		suite = ChaosSuite()
	}
	if len(rates) == 0 {
		rates = ChaosRates
	}
	var rows []ChaosRow
	for _, rate := range rates {
		batch, _ := forEachBug(suite, func(b *bugs.Bug) (ChaosRow, error) {
			row := ChaosRow{Bug: b.Name, Rate: rate}
			res, err := DiagnoseFaulty(b, rate, faults.ChaosSeed)
			row.Err = err != nil
			if res != nil {
				row.Recurrences = res.FailureRecurrences
				row.TotalRuns = res.TotalRuns
				row.Health = res.Health
				if res.Sketch != nil {
					_, _, row.Accuracy = res.Sketch.Accuracy(b.Ideal())
					row.LowConfidence = res.Sketch.LowConfidence
				}
			}
			return row, nil
		})
		rows = append(rows, batch...)
	}
	return rows
}
