package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// pct sorts a copy of xs and returns its p-th percentile, 0 when xs is
// empty (a layer the workload never crossed).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

func median(xs []float64) float64 { return pct(xs, 50) }

// tailLadder is the percentiles a timing may be reported at, each with
// the share of samples beyond it as 1/beyond.
var tailLadder = []struct {
	p      float64
	beyond int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it among n samples (choosing-metrics §1): a
// percentile with fewer is one or two outliers, not a distribution.
// Below 100 samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := tailLadder[0].p
	for _, l := range tailLadder[1:] {
		if n >= 10*l.beyond {
			best = l.p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median — the run-to-run spread the contract's
// acceptance rule uses. Quartiles follow Python's
// statistics.quantiles(xs, n=4) (exclusive method) so the number matches
// what the driver computes. It needs at least two values; fewer give 0.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		m := len(s)
		pos := float64(k) * float64(m+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// jain is Jain's fairness index over xs: 1 when every share is equal,
// 1/n when one member does all the work.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var logs float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
