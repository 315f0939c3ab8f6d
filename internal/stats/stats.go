// Package stats provides the statistical primitives the Gist server uses:
// precision/recall/F-beta ranking of failure predictors (§3.3) and the
// normalized Kendall tau distance used for ordering accuracy (§5.2).
package stats

// PrecisionRecallF computes a predictor's precision, recall and F-beta
// measure from its contingency counts:
//
//	fail      — failing runs in which the predictor held
//	succ      — successful runs in which the predictor held
//	totalFail — failing runs observed in total
//
// Precision answers "how many runs fail among those the predictor flags";
// recall answers "how many failing runs the predictor flags". The paper
// sets beta=0.5 so that precision dominates: a wrong root-cause hint is
// worse than a missed one.
//
// Edge: with totalFail == 0 there are no failing runs to recover, so
// recall — and with it F — is 0 by convention even at perfect
// precision. The ranking pipeline never reaches this case (predictors
// are only ranked once at least one failing run arrived), but callers
// feeding raw contingency counts must not interpret the zero F as "bad
// predictor"; it means "no evidence".
func PrecisionRecallF(fail, succ, totalFail int, beta float64) (p, r, f float64) {
	if fail+succ > 0 {
		p = float64(fail) / float64(fail+succ)
	}
	if totalFail > 0 {
		r = float64(fail) / float64(totalFail)
	}
	b2 := beta * beta
	if den := b2*p + r; den > 0 {
		f = (1 + b2) * p * r / den
	}
	return p, r, f
}

// OrderingAccuracy converts Kendall tau counts (pairwise order
// disagreements over comparable pairs) into the percentage accuracy of
// §5.2: 100 * (1 - tau / pairs). With no comparable pairs the
// orderings cannot disagree and accuracy is 100.
func OrderingAccuracy(disagreements, pairs int) float64 {
	if pairs == 0 {
		return 100
	}
	return 100 * (1 - float64(disagreements)/float64(pairs))
}

// Jaccard returns 100 * |A ∩ B| / |A ∪ B| over two sets — the relevance
// accuracy of §5.2.
func Jaccard[T comparable](a, b map[T]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 100
	}
	inter, union := 0, 0
	seen := make(map[T]bool, len(a)+len(b))
	for x := range a {
		seen[x] = true
		if b[x] {
			inter++
		}
	}
	for x := range b {
		seen[x] = true
	}
	union = len(seen)
	if union == 0 {
		return 100
	}
	return 100 * float64(inter) / float64(union)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile reads the p-quantile (p in [0,1]) from an ascending-sorted
// slice by the lower nearest-rank rule; 0 for an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}
