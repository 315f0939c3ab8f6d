package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPrecisionRecallF(t *testing.T) {
	cases := []struct {
		fail, succ, totalFail int
		beta                  float64
		p, r, f               float64
	}{
		{5, 0, 5, 0.5, 1, 1, 1},
		{5, 5, 5, 0.5, 0.5, 1, (1.25 * 0.5 * 1) / (0.25*0.5 + 1)},
		{0, 5, 5, 0.5, 0, 0, 0},
		{0, 0, 5, 0.5, 0, 0, 0},
		{3, 0, 6, 0.5, 1, 0.5, (1.25 * 1 * 0.5) / (0.25*1 + 0.5)},
		{5, 0, 5, 1, 1, 1, 1},
	}
	for _, c := range cases {
		p, r, f := PrecisionRecallF(c.fail, c.succ, c.totalFail, c.beta)
		if !almost(p, c.p) || !almost(r, c.r) || !almost(f, c.f) {
			t.Errorf("PRF(%d,%d,%d,%g) = %g,%g,%g want %g,%g,%g",
				c.fail, c.succ, c.totalFail, c.beta, p, r, f, c.p, c.r, c.f)
		}
	}
}

func TestBetaHalfFavorsPrecision(t *testing.T) {
	// Predictor A: precision 1.0, recall 0.5. Predictor B: precision 0.5,
	// recall 1.0. With beta=0.5, A must win; with beta=2 (recall-heavy),
	// B must win.
	_, _, fa := PrecisionRecallF(5, 0, 10, 0.5)
	_, _, fb := PrecisionRecallF(10, 10, 10, 0.5)
	if fa <= fb {
		t.Errorf("beta=0.5 should favor precision: F(A)=%g F(B)=%g", fa, fb)
	}
	_, _, fa2 := PrecisionRecallF(5, 0, 10, 2)
	_, _, fb2 := PrecisionRecallF(10, 10, 10, 2)
	if fa2 >= fb2 {
		t.Errorf("beta=2 should favor recall: F(A)=%g F(B)=%g", fa2, fb2)
	}
}

// Property: F is always between min(P,R)·k and max(P,R), and zero iff
// either P or R is zero.
func TestFMeasureBounds(t *testing.T) {
	f := func(fail, succ, extraFail uint8) bool {
		totalFail := int(fail) + int(extraFail)
		if totalFail == 0 {
			totalFail = 1
		}
		p, r, fm := PrecisionRecallF(int(fail), int(succ), totalFail, 0.5)
		if p == 0 || r == 0 {
			return fm == 0
		}
		lo, hi := p, r
		if lo > hi {
			lo, hi = hi, lo
		}
		return fm >= 0 && fm <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// The totalFail == 0 edge: recall and F are 0 by convention, precision
// is still meaningful, and nothing divides by zero.
func TestPrecisionRecallFNoFailingRuns(t *testing.T) {
	p, r, f := PrecisionRecallF(0, 0, 0, 0.5)
	if p != 0 || r != 0 || f != 0 {
		t.Errorf("all-zero counts: got %g,%g,%g want 0,0,0", p, r, f)
	}
	p, r, f = PrecisionRecallF(0, 3, 0, 0.5)
	if p != 0 || r != 0 || f != 0 {
		t.Errorf("succ-only counts: got %g,%g,%g want 0,0,0", p, r, f)
	}
	// Inconsistent counts (fail > totalFail == 0): precision is perfect
	// but recall and F stay 0 by the documented convention — and stay
	// finite, which is what admission code relies on.
	p, r, f = PrecisionRecallF(2, 0, 0, 0.5)
	if p != 1 || r != 0 || f != 0 {
		t.Errorf("fail>totalFail=0: got %g,%g,%g want 1,0,0", p, r, f)
	}
	for _, v := range []float64{p, r, f} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("non-finite result: %g", v)
		}
	}
}

func TestOrderingAccuracy(t *testing.T) {
	for _, c := range []struct {
		disagreements, pairs int
		want                 float64
	}{{0, 6, 100}, {3, 3, 0}, {1, 4, 75}, {0, 0, 100}} { // no comparable pairs cannot disagree
		if got := OrderingAccuracy(c.disagreements, c.pairs); got != c.want {
			t.Errorf("OrderingAccuracy(%d, %d) = %g, want %g", c.disagreements, c.pairs, got, c.want)
		}
	}
}

func TestJaccard(t *testing.T) {
	set := func(xs ...int) map[int]bool {
		m := map[int]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	cases := []struct {
		a, b map[int]bool
		want float64
	}{
		{set(1, 2, 3), set(1, 2, 3), 100},
		{set(1, 2), set(3, 4), 0},
		{set(1, 2, 3), set(2, 3, 4), 50},
		{set(), set(), 100},
		{set(1), set(), 0},
	}
	for i, c := range cases {
		if got := Jaccard(c.a, c.b); !almost(got, c.want) {
			t.Errorf("case %d: got %g want %g", i, got, c.want)
		}
	}
}

// Property: Jaccard is symmetric and within [0, 100].
func TestJaccardProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := map[uint8]bool{}
		b := map[uint8]bool{}
		for _, x := range xs {
			a[x] = true
		}
		for _, y := range ys {
			b[y] = true
		}
		j1 := Jaccard(a, b)
		j2 := Jaccard(b, a)
		return almost(j1, j2) && j1 >= 0 && j1 <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2) {
		t.Errorf("mean: %g", got)
	}
}

func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 0.95); got != 0 {
		t.Errorf("percentile of empty = %g, want 0", got)
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Errorf("p%g of a single element = %g, want 7", 100*p, got)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0: 1, 0.5: 5, 0.95: 9, 1: 10} {
		if got := Percentile(sorted, p); got != want {
			t.Errorf("p%g of 1..10 = %g, want %g", 100*p, got, want)
		}
	}
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty is vacuously fair", nil, 1},
		{"all zero is vacuously fair", []float64{0, 0, 0}, 1},
		{"equal shares", []float64{5, 5, 5, 5}, 1},
		{"one tenant monopolizes", []float64{10, 0, 0, 0}, 0.25},
		{"moderate skew", []float64{4, 2}, 0.9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := JainIndex(c.xs); !almost(got, c.want) {
				t.Errorf("JainIndex(%v) = %g, want %g", c.xs, got, c.want)
			}
		})
	}
}
