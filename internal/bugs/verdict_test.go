//go:build !race

// The sweep below is 480 diagnoses. Under the race detector it takes
// about two minutes serially, in the slowest CI step; the determinism
// suites already run the fleet at width under -race, so this file is
// built without it and CI runs it by name in a step of its own.

package bugs

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// verdictSeeds is how many failures per bug the verdict table covers:
// SeedBase 1 through verdictSeeds.
const verdictSeeds = 20

const verdictFile = "testdata/verdicts.txt"

// verdictRow is one bug's line of the table: over verdictSeeds
// diagnoses, how many the DeveloperOracle accepts, how many put an
// IdealOrder pair in the top predictor, how many have no predictor,
// how many cover every ideal line, and the top predictor's kind and
// pattern.
type verdictRow struct {
	accept, idealOrder, noPredictor, fullCoverage int
	top                                           map[string]int
}

// verdict diagnoses b at every seed with the given worker width. It
// returns the bug's table row and the bytes the digest covers: each
// sketch's indented JSON followed by its run, recurrence and overhead
// figures.
func verdict(t *testing.T, b *Bug, workers int) (verdictRow, []byte) {
	accepts, ideal := DeveloperOracle(b), b.Ideal()
	row := verdictRow{top: map[string]int{}}
	var digest []byte
	for seed := int64(1); seed <= verdictSeeds; seed++ {
		cfg := b.GistConfig()
		cfg.SeedBase, cfg.Workers = seed, workers
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sk := res.Sketch
		js, err := sk.MarshalIndentJSON()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		digest = append(digest, js...)
		digest = binary.LittleEndian.AppendUint64(digest, uint64(res.TotalRuns))
		digest = binary.LittleEndian.AppendUint64(digest, uint64(res.FailureRecurrences))
		digest = binary.LittleEndian.AppendUint64(digest, math.Float64bits(res.AvgOverheadPct))

		if accepts(sk) {
			row.accept++
		}
		lines := map[int]bool{}
		for _, s := range sk.Steps {
			lines[s.Line] = true
		}
		if !slices.ContainsFunc(ideal.Lines, func(ln int) bool { return !lines[ln] }) {
			row.fullCoverage++
		}
		if len(sk.Predictors) == 0 {
			row.noPredictor++
			continue
		}
		p := sk.Predictors[0]
		row.top[strings.TrimSpace(p.Kind.String()+" "+p.Pattern)]++
		if p.Kind == core.PredOrder {
			first := sk.Prog.Instrs[p.InstrIDs[0]].Pos.Line
			last := sk.Prog.Instrs[p.InstrIDs[len(p.InstrIDs)-1]].Pos.Line
			if slices.Contains(ideal.Order, [2]int{first, last}) {
				row.idealOrder++
			}
		}
	}
	return row, digest
}

// TestVerdictTable diagnoses every bug at SeedBase 1–20 and compares
// the verdict table and one SHA-256 over all 240 diagnoses with
// testdata/verdicts.txt. The digest is computed at Workers 1 and at
// GOMAXPROCS, and the two must agree. When they differ from the file,
// the test prints this build's table to stdout, without the test log's
// indent, so a change that moves a verdict on purpose can write it over
// the file (its header says how).
func TestVerdictTable(t *testing.T) {
	if testing.Short() {
		t.Skip("480 diagnoses; run without -short")
	}
	all := All()
	widths := []int{1, runtime.GOMAXPROCS(0)}
	rows := make([]verdictRow, len(all))
	digests := make([][2][]byte, len(all))
	t.Run("bugs", func(t *testing.T) {
		for i, b := range all {
			t.Run(b.Name, func(t *testing.T) {
				t.Parallel()
				rows[i], digests[i][0] = verdict(t, b, widths[0])
				_, digests[i][1] = verdict(t, b, widths[1])
			})
		}
	})
	if t.Failed() {
		return
	}

	var sums [2][32]byte
	for w := range widths {
		h := sha256.New()
		for i := range all {
			h.Write(digests[i][w])
		}
		copy(sums[w][:], h.Sum(nil))
	}
	if sums[0] != sums[1] {
		t.Errorf("digest at Workers 1 %x differs from digest at Workers %d %x", sums[0], widths[1], sums[1])
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "# core.Run(GistConfig()) at SeedBase 1-%d for every bug. Regenerate with\n", verdictSeeds)
	sb.WriteString("# go test -run TestVerdictTable ./internal/bugs/ | sed -n '/^# core.Run/,/^digest/p'\n")
	fmt.Fprintf(&sb, "%-13s %6s %11s %12s %13s  %s\n", "bug", "accept", "ideal-order", "no-predictor", "full-coverage", "top predictor")
	var total verdictRow
	for i, b := range all {
		r := rows[i]
		total.accept += r.accept
		total.idealOrder += r.idealOrder
		total.noPredictor += r.noPredictor
		total.fullCoverage += r.fullCoverage
		var keys []string
		for k := range r.top {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b string) int {
			return cmp.Or(r.top[b]-r.top[a], strings.Compare(a, b))
		})
		top := []string{"-"}
		if len(keys) > 0 {
			top = top[:0]
		}
		for _, k := range keys {
			top = append(top, fmt.Sprintf("%s %d", k, r.top[k]))
		}
		fmt.Fprintf(&sb, "%-13s %6d %11d %12d %13d  %s\n", b.Name, r.accept, r.idealOrder, r.noPredictor, r.fullCoverage, strings.Join(top, ", "))
	}
	fmt.Fprintf(&sb, "%-13s %6d %11d %12d %13d  of %d\n", "total", total.accept, total.idealOrder, total.noPredictor, total.fullCoverage, len(all)*verdictSeeds)
	fmt.Fprintf(&sb, "digest sha256:%x\n", sums[0])

	want, err := os.ReadFile(verdictFile)
	if err != nil {
		t.Error(err)
	}
	if got := sb.String(); got != string(want) {
		fmt.Print(got)
		t.Errorf("verdicts differ from %s; the table printed above is this build's", verdictFile)
	}
}
