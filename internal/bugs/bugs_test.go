package bugs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/vm/interp"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("suite has %d bugs, want 12", len(all))
	}
	want := []string{
		"apache-1", "apache-2", "apache-3", "apache-4",
		"cppcheck-1", "cppcheck-2",
		"curl", "transmission", "sqlite", "memcached", "pbzip2",
		"deadlock",
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("row %d: got %s, want %s (Table 1 order)", i, all[i].Name, name)
		}
		if ByName(name) != all[i] {
			t.Errorf("ByName(%s) mismatch", name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown bug should be nil")
	}
	if len(Names()) != 12 {
		t.Error("Names() incomplete")
	}
}

func TestMetadataPresent(t *testing.T) {
	for _, b := range All() {
		if b.Software == "" || b.Version == "" || b.BugID == "" || b.Class == "" || b.Fix == "" {
			t.Errorf("%s: incomplete metadata: %+v", b.Name, b)
		}
		if b.RealLOC <= 0 {
			t.Errorf("%s: missing real LOC", b.Name)
		}
		if len(b.FaultKinds) == 0 {
			t.Errorf("%s: no expected fault kinds", b.Name)
		}
		if len(b.IdealLines) < 3 {
			t.Errorf("%s: ideal sketch too small (%d lines)", b.Name, len(b.IdealLines))
		}
	}
}

func TestProgramsCompile(t *testing.T) {
	for _, b := range All() {
		p := b.Program()
		if p == nil || p.FuncByName["main"] == nil {
			t.Errorf("%s: did not compile", b.Name)
		}
		// Cached.
		if b.Program() != p {
			t.Errorf("%s: program not cached", b.Name)
		}
	}
}

func TestIdealSketchesResolve(t *testing.T) {
	for _, b := range All() {
		ideal := b.Ideal()
		if len(ideal.Lines) != len(b.IdealLines) {
			t.Errorf("%s: resolved %d of %d ideal lines", b.Name, len(ideal.Lines), len(b.IdealLines))
		}
		seen := map[int]bool{}
		for _, ln := range ideal.Lines {
			if ln <= 0 {
				t.Errorf("%s: bad ideal line %d", b.Name, ln)
			}
			if seen[ln] {
				t.Errorf("%s: duplicate ideal line %d", b.Name, ln)
			}
			seen[ln] = true
		}
		for _, pair := range ideal.Order {
			if pair[0] == pair[1] {
				t.Errorf("%s: degenerate order pair %v", b.Name, pair)
			}
		}
	}
}

func TestMustLinePanicsOnBadFragment(t *testing.T) {
	b := Pbzip2
	defer func() {
		if recover() == nil {
			t.Error("MustLine should panic on unknown fragment")
		}
	}()
	b.MustLine("no such line anywhere")
}

// TestEachBugHasBothOutcomes verifies the production population: every bug
// must fail sometimes (it is a bug) and succeed sometimes (it is elusive),
// and always with an expected fault kind.
func TestEachBugHasBothOutcomes(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel() // 120 interpreter runs of the bug's own program
			p := b.Program()
			pm := b.PreemptMean
			if pm == 0 {
				pm = 3
			}
			fails, successes := 0, 0
			for seed := int64(0); seed < 120; seed++ {
				wl := vm.Workload{}
				if len(b.Workloads) > 0 {
					wl = b.Workloads[int(seed)%len(b.Workloads)]
				}
				out := interp.Run(p, vm.Config{Seed: seed, PreemptMean: pm, Workload: wl, MaxSteps: 300_000})
				if out.Failed {
					fails++
					if !b.FaultOK(out.Report.Kind) {
						t.Fatalf("unexpected fault %v at %s", out.Report.Kind, out.Report.Pos)
					}
				} else {
					successes++
				}
			}
			if fails == 0 {
				t.Error("bug never failed")
			}
			if successes == 0 {
				t.Error("bug always failed — not an elusive production bug")
			}
		})
	}
}

// TestGistDiagnosesEveryBug runs the full pipeline on all 12 bugs and
// checks the §5 claims in miniature: a sketch is produced, it ends at the
// failure, it covers the ideal sketch's lines, and the accuracy against
// the hand-written ideal is high.
func TestGistDiagnosesEveryBug(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite diagnosis is slow; run without -short")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := core.Run(b.GistConfig())
			if err != nil {
				t.Fatalf("gist: %v", err)
			}
			sk := res.Sketch
			if !b.FaultOK(sk.Report.Kind) {
				t.Errorf("diagnosed wrong fault kind %v", sk.Report.Kind)
			}
			if !sk.Steps[len(sk.Steps)-1].IsFailure {
				t.Error("sketch does not end at the failure")
			}
			if res.FailureRecurrences < 1 {
				t.Error("no failure recurrences recorded")
			}
			ideal := b.Ideal()
			rel, ord, overall := sk.Accuracy(ideal)
			if overall < 55 {
				t.Errorf("accuracy too low: relevance=%.1f ordering=%.1f overall=%.1f\n%s",
					rel, ord, overall, sk.Render())
			}
			if ord < 60 {
				t.Errorf("ordering accuracy too low: %.1f\n%s", ord, sk.Render())
			}
			// Sketch lines must cover most of the ideal sketch.
			lines := map[int]bool{}
			for _, s := range sk.Steps {
				lines[s.Line] = true
			}
			missing := 0
			for _, ln := range ideal.Lines {
				if !lines[ln] {
					missing++
				}
			}
			if missing > len(ideal.Lines)/2 {
				t.Errorf("sketch misses %d of %d ideal lines\n%s", missing, len(ideal.Lines), sk.Render())
			}
			if b.Concurrency && !b.SingleThreadSketch && len(sk.Threads) < 2 {
				t.Errorf("concurrency bug sketch shows %d thread(s)", len(sk.Threads))
			}
		})
	}
}
