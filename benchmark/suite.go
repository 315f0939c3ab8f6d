package main

import (
	"bytes"
	"embed"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/analysis"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/vm"
)

// goldenFS holds the sketches of the suite's own configuration
// (SeedBase 1), generated once from the serial in-process path
// (-write-golden). Every sketch of every workload must equal them byte
// for byte, at every seed.
//
//go:embed golden/*.sketch.json
var goldenFS embed.FS

// goldenSeedBase is the SeedBase the goldens were generated at, the one
// bugs.Bug.GistConfig sets.
const goldenSeedBase = 1

// minAccuracyPct is the floor of the ideal-sketch oracle: a sketch whose
// overall accuracy (§5.2) against the hand-written ideal sketch falls
// below it does not show the root cause. The suite's least accurate
// sketch (deadlock, 75 %) clears it with room for seed-to-seed change.
const minAccuracyPct = 50

// bugCase is one bug prepared for diagnosis: its configuration, the
// failure report a production deployment would ship, and the serial
// in-process sketch every other path must reproduce.
type bugCase struct {
	index  int // position in suite order
	bug    *bugs.Bug
	cfg    core.Config // StopWhen set; Workers left to the workload
	report *vm.FailureReport
	disc   int

	ref      []byte // MarshalIndentJSON of the serial in-process sketch
	accuracy float64
	accepted bool // the developer oracle accepts the reference sketch
}

// suite is the common set-up shared by all workloads.
type suite struct {
	seed     int64
	seedBase int64
	clients  int
	cases    []*bugCase
	order    []int // seed-shuffled visiting order over cases
	byName   map[string]*bugCase
}

// developerOracle is the benchmark's copy of the rule in
// experiments.DeveloperOracle (§3.2.1, "the developer decides the sketch
// contains the root cause"): the top predictor has precision >= 0.75 and
// at least 75 % of the ideal sketch's lines are present.
func developerOracle(b *bugs.Bug) func(*core.Sketch) bool {
	ideal := b.Ideal()
	return func(sk *core.Sketch) bool {
		if len(sk.Predictors) == 0 || sk.Predictors[0].P < 0.75 {
			return false
		}
		present := map[int]bool{}
		for _, s := range sk.Steps {
			present[s.Line] = true
		}
		covered := 0
		for _, ln := range ideal.Lines {
			if present[ln] {
				covered++
			}
		}
		return covered*4 >= 3*len(ideal.Lines)
	}
}

// newSuite performs the common set-up: per bug, discover the failure
// report and run one serial in-process diagnosis whose bytes are the
// cross-path reference. The static-analysis caches are dropped first so
// every set-up pays parse-to-bytecode the way a fresh process does. Bugs
// are prepared on `clients` goroutines; each diagnosis is itself serial.
//
// The seed shuffles the order bugs are visited in (and the storm's
// streams); it does not change the diagnoses. seedBase does: it is every
// campaign's core.Config.SeedBase, 1 unless -seed-base says otherwise,
// and only at 1 do the committed goldens apply.
func newSuite(seed, seedBase int64, clients int) (*suite, error) {
	analysis.Reset()
	all := bugs.All()
	s := &suite{seed: seed, seedBase: seedBase, clients: clients, cases: make([]*bugCase, len(all)), byName: map[string]*bugCase{}}
	errs := make([]error, len(all))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s.cases[i], errs[i] = prepare(all[i], seedBase)
			}
		}()
	}
	for i := range all {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err == nil && seedBase == goldenSeedBase {
			err = s.cases[i].checkGolden()
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", all[i].Name, err)
		}
		s.cases[i].index = i
		s.byName[all[i].Name] = s.cases[i]
	}
	s.order = rand.New(rand.NewSource(seed)).Perm(len(all))
	return s, nil
}

func prepare(b *bugs.Bug, seedBase int64) (*bugCase, error) {
	cfg := b.GistConfig()
	cfg.SeedBase = seedBase
	cfg.StopWhen = developerOracle(b)
	serial := cfg
	serial.Workers = 1
	report, disc, err := core.FirstFailure(serial)
	if err != nil {
		return nil, err
	}
	res, err := core.RunFromReport(serial, report, disc)
	if err != nil {
		return nil, err
	}
	ref, err := res.Sketch.MarshalIndentJSON()
	if err != nil {
		return nil, err
	}
	c := &bugCase{bug: b, cfg: cfg, report: report, disc: disc, ref: ref}
	_, _, c.accuracy = res.Sketch.Accuracy(b.Ideal())
	c.accepted = cfg.StopWhen(res.Sketch)
	if c.accuracy < minAccuracyPct {
		return nil, fmt.Errorf("reference sketch is %.1f %% accurate against the ideal sketch, below the %d %% floor", c.accuracy, minAccuracyPct)
	}
	showsFailure := false
	for _, st := range res.Sketch.Steps {
		showsFailure = showsFailure || st.IsFailure
	}
	if !showsFailure {
		return nil, fmt.Errorf("reference sketch does not show the failing statement")
	}
	return c, nil
}

func goldenName(b *bugs.Bug) string { return "golden/" + b.Name + ".sketch.json" }

func (c *bugCase) checkGolden() error {
	want, err := goldenFS.ReadFile(goldenName(c.bug))
	if err != nil {
		return fmt.Errorf("no golden sketch: %w", err)
	}
	if !bytes.Equal(c.ref, want) {
		return fmt.Errorf("serial sketch differs from the committed golden (regenerate with -write-golden only if the change is intended)")
	}
	return nil
}

// configFor is the ConfigFor option handed to the service and shard
// tiers, so every path diagnoses with the suite's configuration.
func (s *suite) configFor(workers int) func(string) (core.Config, error) {
	return func(bug string) (core.Config, error) {
		c := s.byName[bug]
		if c == nil {
			return core.Config{}, fmt.Errorf("unknown bug %q", bug)
		}
		cfg := c.cfg
		cfg.Workers = workers
		return cfg, nil
	}
}

// check is the correctness gate for one produced sketch: byte-equal to
// the set-up's serial reference, which is itself byte-equal to the
// committed golden (at SeedBase 1) and passed the ideal-sketch floor.
func (c *bugCase) check(sketch []byte) error {
	if !bytes.Equal(sketch, c.ref) {
		return fmt.Errorf("%s: sketch differs from the serial in-process reference (%d vs %d bytes)", c.bug.Name, len(sketch), len(c.ref))
	}
	return nil
}

func (s *suite) sketchBytes() int {
	n := 0
	for _, c := range s.cases {
		n += len(c.ref)
	}
	return n
}
