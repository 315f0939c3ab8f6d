// Apache: reproduce Fig. 8 of the paper — the failure sketch of Apache
// bug #21287, a double free caused by a non-atomic decrement-check-free
// triplet on a cache object's reference count.
//
// Run with: go run ./examples/apache
package main

import (
	"fmt"
	"log"

	"repro/internal/bugs"
	"repro/internal/core"
)

func main() {
	bug := bugs.ByName("apache-3")

	cfg := bug.GistConfig()
	cfg.StopWhen = bugs.DeveloperOracle(bug)

	res, err := core.Run(cfg)
	if err != nil {
		log.Fatalf("gist: %v", err)
	}
	fmt.Println(res.Sketch.Render())

	fmt.Printf("Gist slice tracking: %.2f%% average client overhead, %d failure recurrences\n\n",
		res.AvgOverheadPct, res.FailureRecurrences)

	// The Fig. 13 framing, what full tracing would have cost instead, is
	// part of the paper's evaluation.
	fmt.Println("Full-tracing alternatives on the same program (Fig. 13):")
	fmt.Println("  go run ./cmd/gist-bench -exp fig13 -bugs apache-3")
	fmt.Printf("\nFix: %s\n", bug.Fix)
}
