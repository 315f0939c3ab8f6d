// Curl: reproduce Fig. 7 of the paper — the failure sketch of Curl bug
// #965, a sequential, input-dependent crash: a URL with unbalanced braces
// leaves urls->current null and strlen(NULL) segfaults.
//
// Sequential bugs exercise a different part of Gist than races: there is
// no cross-thread order to recover, so branch and data-value predictors
// carry the diagnosis (here: "the depth>0 branch was taken" and
// "current == 0").
//
// Run with: go run ./examples/curl
package main

import (
	"fmt"
	"log"

	"repro/internal/bugs"
	"repro/internal/core"
)

func main() {
	bug := bugs.ByName("curl")

	fmt.Println("Workload pool (endpoint inputs):")
	for i, wl := range bug.Workloads {
		fmt.Printf("  endpoint class %d: %q\n", i, wl.Strs[0])
	}
	fmt.Println()

	cfg := bug.GistConfig()
	cfg.StopWhen = bugs.DeveloperOracle(bug)

	res, err := core.Run(cfg)
	if err != nil {
		log.Fatalf("gist: %v", err)
	}

	fmt.Println(res.Sketch.Render())

	fmt.Println("All ranked failure predictors:")
	for i, r := range res.Sketch.AllRanked {
		if i >= 8 {
			fmt.Printf("  ... and %d more\n", len(res.Sketch.AllRanked)-i)
			break
		}
		fmt.Printf("  %d. [%s] %-70s P=%.2f R=%.2f F=%.2f\n", i+1, r.Kind, r.Desc, r.P, r.R, r.F)
	}
	fmt.Printf("\nFix: %s\n", bug.Fix)
}
