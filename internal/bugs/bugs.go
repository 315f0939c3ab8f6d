// Package bugs is the Bugbase-style suite of the 11 failures the paper
// evaluates (Table 1): MiniC programs that reproduce the *root-cause
// structure* of each real bug — the same dependence chains, interleaving
// patterns, and failure modes, at reduced scale — together with the
// workloads that trigger them and hand-written ideal failure sketches
// for the §5.2 accuracy evaluation.
//
// Each program also performs realistic background work (request serving,
// compression, parsing loops): like the real applications, the overwhelming
// majority of executed instructions are unrelated to the bug, which is what
// makes the overhead measurements meaningful.
package bugs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vm"
)

// Bug is one evaluated failure.
type Bug struct {
	// Name is the suite identifier, e.g. "apache-3".
	Name string
	// Software/Version/BugID/RealLOC reproduce the Table 1 metadata for
	// the real system the MiniC program stands in for.
	Software string
	Version  string
	BugID    string
	RealLOC  int
	// Class describes the failure, e.g. "concurrency, double free".
	Class string
	// Concurrency marks schedule-dependent bugs.
	Concurrency bool
	// SingleThreadSketch marks concurrency bugs whose *failing* runs
	// legitimately produce a one-column sketch: in an order violation
	// where the racing write never executed before the crash, there is
	// nothing honest to show in the other thread's column (the root cause
	// is the absence of the write, pinned by the value predictor).
	SingleThreadSketch bool
	// Fix summarizes how the developers fixed the real bug.
	Fix string

	// Source is the MiniC program.
	Source string
	// Workloads is the input pool endpoints draw from; for sequential
	// bugs it mixes benign and failure-triggering inputs.
	Workloads []vm.Workload
	// FaultKinds lists the acceptable failure kinds (a race can surface
	// as either null-deref or use-after-free depending on the schedule).
	FaultKinds []vm.FaultKind

	// IdealLines are unique source fragments identifying the lines of the
	// hand-written ideal failure sketch.
	IdealLines []string
	// IdealOrder lists (earlier, later) fragment pairs that the sketch
	// must order correctly — the key cross-thread orderings.
	IdealOrder [][2]string

	// PreemptMean overrides the scheduler aggressiveness (0 = default).
	PreemptMean int
	// Endpoints overrides the per-iteration fleet size (0 = default).
	Endpoints int

	once sync.Once
	prog *ir.Program
}

// Program returns the compiled program (cached).
func (b *Bug) Program() *ir.Program {
	b.once.Do(func() {
		b.prog = ir.MustCompile(b.Name+".mc", b.Source)
	})
	return b.prog
}

// MustLine returns the 1-based line number of the unique source line
// containing frag; it panics if frag is absent or ambiguous, so stale
// ideal-sketch definitions fail loudly.
func (b *Bug) MustLine(frag string) int {
	line := 0
	for i, l := range strings.Split(b.Source, "\n") {
		if strings.Contains(l, frag) {
			if line != 0 {
				panic(fmt.Sprintf("%s: fragment %q is ambiguous (lines %d and %d)", b.Name, frag, line, i+1))
			}
			line = i + 1
		}
	}
	if line == 0 {
		panic(fmt.Sprintf("%s: fragment %q not found", b.Name, frag))
	}
	return line
}

// Ideal resolves the fragment-based ideal sketch to line numbers.
func (b *Bug) Ideal() core.IdealSketch {
	ideal := core.IdealSketch{}
	for _, frag := range b.IdealLines {
		ideal.Lines = append(ideal.Lines, b.MustLine(frag))
	}
	for _, pair := range b.IdealOrder {
		ideal.Order = append(ideal.Order, [2]int{b.MustLine(pair[0]), b.MustLine(pair[1])})
	}
	return ideal
}

// DeveloperOracle is the automated stand-in for "the developer decides
// the sketch contains the root cause" (§3.2.1): the sketch covers most of
// the ideal sketch's statements and shows a high-precision failure
// predictor.
func DeveloperOracle(b *Bug) func(*core.Sketch) bool {
	ideal := b.Ideal()
	return func(sk *core.Sketch) bool {
		if len(sk.Predictors) == 0 || sk.Predictors[0].P < 0.75 {
			return false
		}
		lines := make(map[int]bool)
		for _, s := range sk.Steps {
			lines[s.Line] = true
		}
		covered := 0
		for _, ln := range ideal.Lines {
			if lines[ln] {
				covered++
			}
		}
		return covered*4 >= 3*len(ideal.Lines)
	}
}

// GistConfig returns the diagnosis configuration for this bug.
func (b *Bug) GistConfig() core.Config {
	title := fmt.Sprintf("%s bug #%s", b.Software, b.BugID)
	if b.BugID == "N/A" {
		title = fmt.Sprintf("%s bug", b.Software)
	}
	cfg := core.Config{
		Prog:         b.Program(),
		Title:        title,
		WorkloadPool: b.Workloads,
		SeedBase:     1,
	}
	if b.PreemptMean > 0 {
		cfg.PreemptMean = b.PreemptMean
	}
	if b.Endpoints > 0 {
		cfg.Endpoints = b.Endpoints
	}
	return cfg
}

// FaultOK reports whether kind is an expected failure of this bug.
func (b *Bug) FaultOK(kind vm.FaultKind) bool {
	for _, k := range b.FaultKinds {
		if k == kind {
			return true
		}
	}
	return false
}

var registry []*Bug

func register(b *Bug) *Bug {
	registry = append(registry, b)
	return b
}

// All returns the bug suite in Table 1 order.
func All() []*Bug {
	out := append([]*Bug(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return tableOrder(out[i].Name) < tableOrder(out[j].Name) })
	return out
}

// ByName returns the named bug, or nil.
func ByName(name string) *Bug {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// ConfigFor maps a bug name to its diagnosis configuration — the
// default the service and the shard workers share, so their sketches
// byte-match `gist -bug X -full`.
func ConfigFor(name string) (core.Config, error) {
	b := ByName(name)
	if b == nil {
		return core.Config{}, fmt.Errorf("unknown bug %q", name)
	}
	return b.GistConfig(), nil
}

// Names returns all bug names in Table 1 order.
func Names() []string {
	var names []string
	for _, b := range All() {
		names = append(names, b.Name)
	}
	return names
}

var tableRows = []string{
	"apache-1", "apache-2", "apache-3", "apache-4",
	"cppcheck-1", "cppcheck-2",
	"curl", "transmission", "sqlite", "memcached", "pbzip2",
	"deadlock",
}

func tableOrder(name string) int {
	for i, n := range tableRows {
		if n == name {
			return i
		}
	}
	return len(tableRows)
}
