package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50} // pct sorts a copy
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {25, 20}, {90, 46}, {100, 50}} {
		if got := pct(xs, c.p); !near(got, c.want) {
			t.Errorf("pct(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("pct reordered its input")
	}
	if got := pct(nil, 50); got != 0 {
		t.Errorf("pct of no samples = %g, want 0", got)
	}
	if got := pct([]float64{7}, 99); got != 7 {
		t.Errorf("pct of one sample = %g, want 7", got)
	}
}

// The highest percentile a timing is reported at must leave at least ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {99, 50}, {100, 90}, {135, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes.
func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([60]*8 + [62]*2, n=4) == [60, 60, 60.5].
	ys := []float64{60, 60, 60, 60, 60, 60, 60, 60, 62, 62}
	if got, want := quartileSpread(ys), 0.5/60; !near(got, want) {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestJainAndGeomean(t *testing.T) {
	if got := jain([]float64{5, 5, 5, 5}); !near(got, 1) {
		t.Errorf("jain(equal) = %g, want 1", got)
	}
	if got := jain([]float64{8, 0, 0, 0}); !near(got, 0.25) {
		t.Errorf("jain(one does all) = %g, want 0.25", got)
	}
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %g, want 4", got)
	}
}

// Rounds of identical work, some of them robbed of CPU by the host: the
// fit must find how much of a stolen second lands in a round, and the
// steadied rounds must read what the undisturbed ones do.
func TestSteadiedReadsAtZeroSteal(t *testing.T) {
	const base, kappa = 2.0, 0.8 // seconds per round at zero steal; share of steal that lands
	stolen := []float64{0, 0.5, 0.02, 1.5, 0.9, 0, 2.5, 0.3, 1.1, 0.04}
	noise := []float64{1, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1, 1.01, 0.99}
	secs := make([]float64, len(stolen))
	for i := range stolen {
		secs[i] = (base + kappa*stolen[i]) * noise[i]
	}
	k, own := steadied(secs, stolen)
	if math.Abs(k-kappa) > 0.1 {
		t.Errorf("kappa = %.3f, want about %.1f", k, kappa)
	}
	for i := range secs {
		if got := secs[i] * own[i]; math.Abs(got-base) > 0.05*base {
			t.Errorf("round %d: %.3f s with %.2f s stolen reads %.3f s at zero steal, want about %.1f", i, secs[i], stolen[i], got, base)
		}
	}
	// No steal: nothing to fit, nothing changed.
	k, own = steadied([]float64{2, 2.1, 1.9}, []float64{0, 0, 0})
	if k != 0 || own[0] != 1 || own[1] != 1 || own[2] != 1 {
		t.Errorf("without steal: kappa %g, own %v; want 0 and all 1", k, own)
	}
	// Steal of a few hundredths cannot move a round by more than itself,
	// however the noise tilts the fit.
	_, own = steadied([]float64{2, 2.4, 1.7, 2.2}, []float64{0.02, 0, 0.04, 0.01})
	for i, o := range own {
		if o < 0.97 || o > 1 {
			t.Errorf("round %d: own share %g outside [0.97, 1] with at most 0.04 s stolen", i, o)
		}
	}
	if k, own := steadied(nil, nil); k != 0 || len(own) != 0 {
		t.Errorf("no rounds: kappa %g, own %v", k, own)
	}
}
