package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelMapIndexOrder(t *testing.T) {
	for _, width := range []int{1, 2, 8, 200} {
		out := parallelMap(NewPool(width), 100, func(i int) int { return i * i })
		if len(out) != 100 {
			t.Fatalf("width=%d: got %d results", width, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("width=%d: out[%d] = %d", width, i, v)
			}
		}
	}
}

func TestParallelMapEmpty(t *testing.T) {
	if out := parallelMap(NewPool(8), 0, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("got %d results for n=0", len(out))
	}
}

func TestFleetChunk(t *testing.T) {
	if got := fleetChunk(1); got != 1 {
		t.Errorf("serial server must not speculate: chunk = %d", got)
	}
	if got := fleetChunk(4); got != 16 {
		t.Errorf("fleetChunk(4) = %d, want 16", got)
	}
}

// TestParallelMapSerialRunsInline pins what keeps a serial fleet
// serial: at width 1 (and for a batch of one) every call runs on the
// caller's goroutine, and a panicking call gives its slot back on the
// way out to the caller's recover.
func TestParallelMapSerialRunsInline(t *testing.T) {
	pool := NewPool(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not reach the calling goroutine")
			}
		}()
		parallelMap(pool, 3, func(i int) int { panic("boom") })
	}()
	if out := parallelMap(pool, 2, func(i int) int { return i + 1 }); out[0] != 1 || out[1] != 2 {
		t.Errorf("pool unusable after a panicking call: %v", out)
	}
}

// TestParallelMapPoolIndexOrder: tenants drawing from one shared pool at
// the same time each still get their own results back in index order.
func TestParallelMapPoolIndexOrder(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		pool := NewPool(width)
		var wg sync.WaitGroup
		for tenant := 1; tenant <= 3; tenant++ {
			wg.Add(1)
			go func(tenant int) {
				defer wg.Done()
				out := parallelMap(pool, 50, func(i int) int { return tenant * i * i })
				for i, v := range out {
					if v != tenant*i*i {
						t.Errorf("width=%d tenant=%d: out[%d] = %d", width, tenant, i, v)
						return
					}
				}
			}(tenant)
		}
		wg.Wait()
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const width = 3
	pool := NewPool(width)
	var active, peak atomic.Int64
	// Two concurrent tenants drawing from one pool: the fleet-wide
	// in-flight count must never exceed the pool width.
	done := make(chan struct{}, 2)
	for tenant := 0; tenant < 2; tenant++ {
		go func() {
			parallelMap(pool, 40, func(i int) int {
				n := active.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				active.Add(-1)
				return i
			})
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	if p := peak.Load(); p > width {
		t.Errorf("pool of width %d ran %d jobs concurrently", width, p)
	}
}

func TestNewPoolDefaultWidth(t *testing.T) {
	if w := NewPool(0).Width(); w < 1 {
		t.Errorf("NewPool(0).Width() = %d", w)
	}
	if w := NewPool(5).Width(); w != 5 {
		t.Errorf("NewPool(5).Width() = %d", w)
	}
}

// TestCampaignPoolDeterminism: attaching a shared pool changes only
// wall-clock interleaving, never the diagnosis.
func TestCampaignPoolDeterminism(t *testing.T) {
	cfg := pbzipConfig(t)
	report, disc, err := FirstFailure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := campaignFingerprint(RunFromReport(cfg, report, disc))
	for _, width := range []int{1, 4} {
		camp, err := NewCampaign(cfg, report, disc)
		if err != nil {
			t.Fatal(err)
		}
		camp.UsePool(NewPool(width))
		if got := campaignFingerprint(camp.Run()); got != want {
			t.Errorf("pool width %d diverged from private fleet:\n--- pooled ---\n%s\n--- private ---\n%s",
				width, got, want)
		}
	}
}

func TestFirstFailureWorkerDeterminism(t *testing.T) {
	type probe struct {
		kind    string
		instrID int
		disc    int
	}
	var base probe
	for i, workers := range []int{1, 3, 8} {
		cfg := pbzipConfig(t)
		cfg.Workers = workers
		report, disc, err := FirstFailure(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := probe{kind: fmt.Sprint(report.Kind), instrID: report.InstrID, disc: disc}
		if i == 0 {
			base = got
			continue
		}
		if got != base {
			t.Errorf("workers=%d diverged: %+v vs %+v", workers, got, base)
		}
	}
}

// TestRunWorkerDeterminism is the core-level half of the repo's
// determinism contract: the full pipeline must produce byte-identical
// output at any fleet width. The experiments package repeats this
// across the printed-sketch bugs and under fault injection.
func TestRunWorkerDeterminism(t *testing.T) {
	fingerprint := func(workers int) string {
		cfg := pbzipConfig(t)
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fp := fmt.Sprintf("disc=%d total=%d rec=%d ov=%.6f health=%s\n",
			res.DiscoveryRuns, res.TotalRuns, res.FailureRecurrences,
			res.AvgOverheadPct, res.Health)
		for _, it := range res.Iters {
			fp += fmt.Sprintf("%+v\n", it)
		}
		fp += res.Sketch.Render()
		for _, r := range res.Sketch.AllRanked {
			fp += fmt.Sprintf("%+v\n", r)
		}
		return fp
	}
	serial := fingerprint(1)
	if wide := fingerprint(8); wide != serial {
		t.Fatalf("workers=8 diverged from serial:\n--- serial ---\n%s\n--- workers=8 ---\n%s", serial, wide)
	}
}
