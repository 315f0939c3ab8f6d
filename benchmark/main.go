// Command benchmark is the repository's one benchmark for failure
// report in → failure sketch out: five workloads, end-to-end metrics
// from an untraced window, per-layer metrics from a traced pass and
// direct layer probes, every sketch checked. See README.md.
//
// The driver's form runs one workload and prints one result line:
//
//	benchmark --workload local_serial --seed 1 --seconds 15 --trace 0
//
// Without --workload it runs all five, both passes each, prints every
// metric by name and writes a result file that -compare reads:
//
//	go run ./benchmark -seed 1
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/bugs"
)

// fingerprint records where and from what a result was measured — the
// fields ROADMAP aim 1 says the committed BENCH files lack.
type fingerprint struct {
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Revision   string  `json:"revision"`
	Seed       int64   `json:"seed"`
	SeedBase   int64   `json:"seed_base"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
}

// resultFile is what a full run writes and -compare reads. Per-workload
// sizes and sample counts travel with each run.
type resultFile struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Runs        []*runResult `json:"runs"`
}

// revision is the source revision: stamped by the go tool when the
// build saw a repository, else asked of git, else unknown (the driver's
// checkout is not a repository).
func revision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the contract's result line (default: all five, both passes)")
		seed      = flag.Int64("seed", 1, "workload seed: the order bugs are visited in and the storm's stream of folds and fetches")
		seedBase  = flag.Int64("seed-base", goldenSeedBase, "core.Config.SeedBase of every diagnosis; other values diagnose other failures, checked against the serial path instead of the goldens")
		seconds   = flag.Float64("seconds", 0, "seconds each window measures (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics from the untraced window; 1: per-layer metrics from the traced pass and probes")
		specPath  = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		traceDir  = flag.String("trace-dir", filepath.Join(".bench_build", "spans"), "directory the span JSONL files are written to")
		out       = flag.String("out", "", "result file of a full run (default .bench_build/results/seed<N>.json)")
		reps      = flag.Int("reps", 1, "full run: untraced repetitions per workload, so -compare can see the runs' own spread")
		compare   = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		writeGold = flag.Bool("write-golden", false, "regenerate benchmark/golden from the serial in-process path at seed 1 and exit")
		goldenDir = flag.String("golden-dir", filepath.Join("benchmark", "golden"), "where -write-golden writes")
	)
	flag.Parse()

	if *writeGold {
		exitOn(writeGolden(*goldenDir))
		return
	}
	spec, err := loadSpec(*specPath)
	exitOn(err)
	if *compare {
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("usage: -compare old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	if *workload != "" {
		res, err := runOne(spec, *workload, *seed, *seedBase, *seconds, *trace != 0, *traceDir)
		exitOn(err)
		specs := spec.EndToEnd
		if res.Trace {
			specs = spec.PerLayer
		}
		fmt.Print(res.render(specs))
		line, err := res.line()
		exitOn(err)
		fmt.Println(string(line))
		return
	}

	file := &resultFile{Fingerprint: fingerprint{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Revision: revision(),
		Seed: *seed, SeedBase: *seedBase, Clients: clientCount(), Seconds: *seconds, Reps: *reps,
	}}
	fp, _ := json.Marshal(file.Fingerprint)
	fmt.Printf("fingerprint: %s\n", fp)
	failed := false
	for _, name := range workloadNames {
		for rep := 0; rep < *reps; rep++ {
			res, err := runOne(spec, name, *seed, *seedBase, *seconds, false, *traceDir)
			exitOn(err)
			fmt.Print(res.render(spec.EndToEnd))
			file.Runs = append(file.Runs, res)
			failed = failed || !res.Correct
		}
		res, err := runOne(spec, name, *seed, *seedBase, *seconds, true, *traceDir)
		exitOn(err)
		fmt.Print(res.render(spec.PerLayer))
		file.Runs = append(file.Runs, res)
		failed = failed || !res.Correct
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "results", fmt.Sprintf("seed%d.json", *seed))
	}
	data, err := json.MarshalIndent(file, "", "  ")
	exitOn(err)
	exitOn(os.MkdirAll(filepath.Dir(*out), 0o755))
	exitOn(os.WriteFile(*out, append(data, '\n'), 0o644))
	fmt.Printf("result file: %s\n", *out)
	if failed {
		fmt.Println("FAILED: at least one run had failed operations or a failed self-check")
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// writeGolden regenerates the golden sketches from the serial in-process
// path, one file per bug.
func writeGolden(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, b := range bugs.All() {
		c, err := prepare(b, goldenSeedBase)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		path := filepath.Join(dir, filepath.Base(goldenName(b)))
		if err := os.WriteFile(path, c.ref, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes, %.1f %% accurate)\n", path, len(c.ref), c.accuracy)
	}
	return nil
}
