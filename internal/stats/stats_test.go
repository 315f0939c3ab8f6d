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

func TestKendallTauIdentical(t *testing.T) {
	d, p := KendallTau([]int{1, 2, 3, 4}, []int{1, 2, 3, 4})
	if d != 0 || p != 6 {
		t.Errorf("identical: d=%d p=%d", d, p)
	}
	if acc := OrderingAccuracy(d, p); acc != 100 {
		t.Errorf("accuracy: %g", acc)
	}
}

func TestKendallTauReversed(t *testing.T) {
	d, p := KendallTau([]int{1, 2, 3}, []int{3, 2, 1})
	if d != 3 || p != 3 {
		t.Errorf("reversed: d=%d p=%d", d, p)
	}
	if acc := OrderingAccuracy(d, p); acc != 0 {
		t.Errorf("accuracy: %g", acc)
	}
}

func TestKendallTauPaperExample(t *testing.T) {
	// From §5.2: <A,B,C> vs <A,C,B> has tau = 1 (the (B,C) pair).
	d, p := KendallTau([]string{"A", "B", "C"}, []string{"A", "C", "B"})
	if d != 1 || p != 3 {
		t.Errorf("paper example: d=%d p=%d", d, p)
	}
}

func TestKendallTauPartialOverlap(t *testing.T) {
	// Only common items are compared.
	d, p := KendallTau([]int{1, 2, 3, 9}, []int{7, 3, 2})
	// common = {2,3}: a has 2 before 3, b has 3 before 2 -> 1 disagreement.
	if d != 1 || p != 1 {
		t.Errorf("partial: d=%d p=%d", d, p)
	}
}

// The documented duplicate semantics: only the first occurrence of a
// repeated key counts; a ranking with duplicates is equivalent to the
// same ranking with later duplicates deleted.
func TestKendallTauDuplicatesFirstOccurrenceWins(t *testing.T) {
	// [1 2 1 3] must behave exactly like [1 2 3].
	d1, p1 := KendallTau([]int{1, 2, 1, 3}, []int{3, 2, 1})
	d2, p2 := KendallTau([]int{1, 2, 3}, []int{3, 2, 1})
	if d1 != d2 || p1 != p2 {
		t.Errorf("dup in a: d=%d p=%d, dedup'd: d=%d p=%d", d1, p1, d2, p2)
	}
	// Duplicates in b as well: [3 2 3 1 2] behaves like [3 2 1].
	d3, p3 := KendallTau([]int{1, 2, 3}, []int{3, 2, 3, 1, 2})
	if d3 != d2 || p3 != p2 {
		t.Errorf("dup in b: d=%d p=%d, want d=%d p=%d", d3, p3, d2, p2)
	}
	// The pair count must reflect distinct common items only — the
	// historical bug risk was `pairs` inflating with repeated keys.
	_, p4 := KendallTau([]int{5, 5, 5, 6}, []int{6, 5})
	if p4 != 1 {
		t.Errorf("pairs over {5,6} = %d, want 1", p4)
	}
}

// Property: appending duplicates of already-present items never changes
// the result.
func TestKendallTauDuplicateInvariance(t *testing.T) {
	f := func(raw []uint8) bool {
		seen := map[uint8]bool{}
		var a []uint8
		for _, x := range raw {
			if !seen[x] {
				seen[x] = true
				a = append(a, x)
			}
		}
		b := make([]uint8, len(a))
		copy(b, a)
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		d1, p1 := KendallTau(a, b)
		// Duplicate every element of a (appended at the end, the worst
		// position for a "last occurrence wins" bug to hide).
		dup := append(append([]uint8(nil), a...), a...)
		d2, p2 := KendallTau(dup, b)
		return d1 == d2 && p1 == p2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
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

func TestKendallTauEmpty(t *testing.T) {
	d, p := KendallTau([]int{}, []int{1, 2})
	if d != 0 || p != 0 {
		t.Errorf("empty: d=%d p=%d", d, p)
	}
	if acc := OrderingAccuracy(0, 0); acc != 100 {
		t.Errorf("no-pairs accuracy should be 100, got %g", acc)
	}
}

// Property: tau distance is symmetric and bounded by the pair count.
func TestKendallTauProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		// Build two permutations of the dedup'd items.
		seen := map[uint8]bool{}
		var a []uint8
		for _, x := range raw {
			if !seen[x] {
				seen[x] = true
				a = append(a, x)
			}
		}
		b := make([]uint8, len(a))
		copy(b, a)
		// Reverse b.
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		d1, p1 := KendallTau(a, b)
		d2, p2 := KendallTau(b, a)
		if d1 != d2 || p1 != p2 {
			return false
		}
		if d1 > p1 {
			return false
		}
		n := len(a)
		return p1 == n*(n-1)/2 && d1 == p1 // full reversal disagrees everywhere
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
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
