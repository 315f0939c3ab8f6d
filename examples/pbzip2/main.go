// Pbzip2: reproduce Fig. 1 of the paper — the failure sketch of the
// pbzip2 use-after-free, where the main thread frees the queue's mutex
// while the consumer thread may still unlock it.
//
// The example also shows what adaptive slice tracking did per iteration:
// how the window grew, what data-flow refinement discovered, and what the
// client runs cost.
//
// Run with: go run ./examples/pbzip2
package main

import (
	"fmt"
	"log"

	"repro/internal/bugs"
	"repro/internal/core"
)

func main() {
	bug := bugs.ByName("pbzip2")

	cfg := bug.GistConfig()
	cfg.StopWhen = bugs.DeveloperOracle(bug)

	res, err := core.Run(cfg)
	if err != nil {
		log.Fatalf("gist: %v", err)
	}

	fmt.Println("Adaptive slice tracking:")
	for i, it := range res.Iters {
		fmt.Printf("  iteration %d: sigma=%-3d tracked %3d IR instructions, %d failing / %d successful runs, overhead %.2f%%",
			i+1, it.Sigma, it.TrackedInstrs, it.Failing, it.Successful, it.OverheadPct)
		if len(it.AddedInstrs) > 0 {
			fmt.Printf(", refinement added %d statements", len(it.AddedInstrs))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println(res.Sketch.Render())

	rel, ord, overall := res.Sketch.Accuracy(bug.Ideal())
	fmt.Printf("Accuracy vs. the ideal sketch: relevance %.1f%%, ordering %.1f%%, overall %.1f%%\n", rel, ord, overall)
	fmt.Printf("Fix: %s\n", bug.Fix)
}
