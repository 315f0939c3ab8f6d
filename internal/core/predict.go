package core

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/stats"
)

// PredictorKind classifies failure predictors (§3.3).
type PredictorKind int

// Predictor kinds: branch outcomes, data values, and inter-thread memory
// access patterns (atomicity violations RWR/WWR/RWW/WRW and race orders
// WW/WR/RW).
const (
	PredBranch PredictorKind = iota
	PredValue
	PredOrder
)

var predKindNames = map[PredictorKind]string{
	PredBranch: "branch",
	PredValue:  "value",
	PredOrder:  "order",
}

// String returns the kind name.
func (k PredictorKind) String() string { return predKindNames[k] }

// Predictor is one failure-predicting event.
type Predictor struct {
	Kind PredictorKind
	// Key uniquely identifies the predictor across runs (it names static
	// statements plus the predicate on them, never runtime addresses).
	Key string
	// Desc is the human-readable form shown in sketches.
	Desc string
	// InstrIDs are the statements the predictor involves, in pattern order.
	InstrIDs []int
	// Value is the data value for PredValue predictors.
	Value int64
	// Pattern is "RWR", "WW", ... for PredOrder; "taken"/"not-taken" for
	// PredBranch.
	Pattern string
}

// Ranked is a predictor with its statistics over the observed runs.
type Ranked struct {
	Predictor
	Fail    int // failing runs in which the predictor held
	Succ    int // successful runs in which the predictor held
	P, R, F float64
}

// ExtractPredicates returns the set of predictors that hold in one run.
// Runs whose PT trace failed to decode (DecodeErr) contribute no branch
// predictors even if stale branch data is still attached — corrupt TNT
// bits make convincing-looking lies — and traps naming instructions
// outside the program are skipped rather than trusted.
func ExtractPredicates(prog *ir.Program, rt *RunTrace) map[string]Predictor {
	out := make(map[string]Predictor)
	valid := func(id int) bool { return id >= 0 && id < len(prog.Instrs) }

	// Branch predictors from decoded control flow.
	if rt.DecodeErr == nil {
		for id, outcomes := range rt.BranchOutcomes() {
			if !valid(id) {
				continue
			}
			for taken := range outcomes {
				pat := "not-taken"
				if taken {
					pat = "taken"
				}
				p := Predictor{
					Kind:     PredBranch,
					Key:      fmt.Sprintf("br:%d:%s", id, pat),
					Desc:     fmt.Sprintf("branch at %s %s", prog.Instrs[id].Pos, pat),
					InstrIDs: []int{id},
					Pattern:  pat,
				}
				out[p.Key] = p
			}
		}
	}

	// Value predictors from watchpoint traps: the value read or written
	// by each watched statement — both the exact value and its range
	// class (§6's future-work range/inequality predicates: exact values
	// like heap addresses vary across runs, but "negative", "zero", and
	// "positive" aggregate).
	for _, tr := range rt.Traps {
		if !valid(tr.InstrID) {
			continue
		}
		p := Predictor{
			Kind:     PredValue,
			Key:      fmt.Sprintf("val:%d:%d", tr.InstrID, tr.Val),
			Desc:     fmt.Sprintf("%s == %d", describeAccess(prog, tr.InstrID), tr.Val),
			InstrIDs: []int{tr.InstrID},
			Value:    tr.Val,
		}
		out[p.Key] = p
		rng, sym := rangeClass(tr.Val)
		// Range predictors deliberately carry no Value: the pattern is the
		// class, and stamping whichever concrete value happened to
		// introduce the key would make the metadata depend on observation
		// order (batch iterates failing-then-successful; streaming sees
		// admission order).
		r := Predictor{
			Kind:     PredValue,
			Key:      fmt.Sprintf("rng:%d:%s", tr.InstrID, rng),
			Desc:     fmt.Sprintf("%s %s", describeAccess(prog, tr.InstrID), sym),
			InstrIDs: []int{tr.InstrID},
			Pattern:  rng,
		}
		out[r.Key] = r
	}

	// Order predictors: per watched address, adjacent cross-thread access
	// pairs and t1-t2-t1 triples over the totally ordered trap log
	// (Fig. 5 and Fig. 6).
	byAddr := make(map[int64][]int) // address -> indexes into rt.Traps
	for i, tr := range rt.Traps {
		if !valid(tr.InstrID) {
			continue
		}
		byAddr[tr.Addr] = append(byAddr[tr.Addr], i)
	}
	var addrs []int64
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	letter := func(w bool) string {
		if w {
			return "W"
		}
		return "R"
	}
	for _, a := range addrs {
		seq := byAddr[a]
		for k := 0; k+1 < len(seq); k++ {
			t1, t2 := rt.Traps[seq[k]], rt.Traps[seq[k+1]]
			if t1.Thread == t2.Thread {
				continue
			}
			pat := letter(t1.IsWrite) + letter(t2.IsWrite)
			if pat == "RR" {
				continue // two reads do not conflict (the paper's race patterns are WW, WR, RW)
			}
			p := Predictor{
				Kind:     PredOrder,
				Key:      fmt.Sprintf("ord:%s:%d<%d", pat, t1.InstrID, t2.InstrID),
				Desc:     fmt.Sprintf("%s: %s before %s", pat, describeAccess(prog, t1.InstrID), describeAccess(prog, t2.InstrID)),
				InstrIDs: []int{t1.InstrID, t2.InstrID},
				Pattern:  pat,
			}
			out[p.Key] = p
		}
		for k := 0; k+2 < len(seq); k++ {
			t1, t2, t3 := rt.Traps[seq[k]], rt.Traps[seq[k+1]], rt.Traps[seq[k+2]]
			if t1.Thread != t3.Thread || t1.Thread == t2.Thread {
				continue
			}
			pat := letter(t1.IsWrite) + letter(t2.IsWrite) + letter(t3.IsWrite)
			if pat != "RWR" && pat != "WWR" && pat != "RWW" && pat != "WRW" {
				continue // only the paper's single-variable atomicity patterns (Fig. 5)
			}
			p := Predictor{
				Kind: PredOrder,
				Key:  fmt.Sprintf("ord:%s:%d,%d,%d", pat, t1.InstrID, t2.InstrID, t3.InstrID),
				Desc: fmt.Sprintf("%s atomicity violation: %s / %s / %s", pat,
					describeAccess(prog, t1.InstrID), describeAccess(prog, t2.InstrID), describeAccess(prog, t3.InstrID)),
				InstrIDs: []int{t1.InstrID, t2.InstrID, t3.InstrID},
				Pattern:  pat,
			}
			out[p.Key] = p
		}
	}
	return out
}

// rangeClass buckets a value for range/inequality predicates.
func rangeClass(v int64) (key, desc string) {
	switch {
	case v < 0:
		return "neg", "< 0"
	case v == 0:
		return "zero", "== 0"
	default:
		return "pos", "> 0"
	}
}

// describeAccess renders a memory-access statement for humans: its source
// text if available, else its position.
func describeAccess(prog *ir.Program, id int) string {
	in := prog.Instrs[id]
	if txt := prog.SourceLine(in.Pos.Line); txt != "" {
		return fmt.Sprintf("`%s` (line %d)", txt, in.Pos.Line)
	}
	return in.Pos.String()
}

// PredictorAccum accumulates predictor statistics one run at a time —
// the streaming form of RankPredictors. Each observed run's predicate
// set is extracted once, at admission, and folded into per-predictor
// contingency counters (internal/stats.Online); Ranked then reads the
// counters instead of recomputing them from the retained populations.
// Feeding the same runs in the same failing/successful split yields a
// ranking byte-identical to the batch computation: precision, recall,
// and F are pure functions of the same three integers, and the sort is
// the same. predict_test.go diffs the two on random trace streams.
//
// Not safe for concurrent use; the campaign admits runs strictly in
// dispatch order already.
type PredictorAccum struct {
	prog   *ir.Program
	beta   float64
	online *stats.Online[string]
	preds  map[string]Predictor
}

// NewPredictorAccum returns an empty accumulator for one program.
func NewPredictorAccum(prog *ir.Program, beta float64) *PredictorAccum {
	return &PredictorAccum{
		prog:   prog,
		beta:   beta,
		online: stats.NewOnline[string](),
		preds:  make(map[string]Predictor),
	}
}

// Observe folds one admitted run into the counters. failing says which
// population the run belongs to (the caller has already matched the
// failure identity and applied trap filtering, exactly as it would
// before batch ranking).
func (a *PredictorAccum) Observe(rt *RunTrace, failing bool) {
	set := ExtractPredicates(a.prog, rt)
	keys := make([]string, 0, len(set))
	for key, p := range set {
		if _, ok := a.preds[key]; !ok {
			a.preds[key] = p
		}
		keys = append(keys, key)
	}
	a.online.Observe(failing, keys)
}

// TotalFail returns the failing runs observed so far.
func (a *PredictorAccum) TotalFail() int { return a.online.TotalFail() }

// Ranked returns the ranking over everything observed so far, sorted by
// descending F with ties broken by key — the same order RankPredictors
// produces over the same runs.
func (a *PredictorAccum) Ranked() []Ranked {
	var out []Ranked
	for key, pred := range a.preds {
		c := a.online.Counts(key)
		p, r, f := c.PRF(a.beta)
		out = append(out, Ranked{Predictor: pred, Fail: c.Fail, Succ: c.Succ, P: p, R: r, F: f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].F != out[j].F {
			return out[i].F > out[j].F
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// RankPredictors aggregates per-run predicate sets and ranks every
// predictor by its F-measure with the given beta (the paper uses β=0.5 to
// favor precision). Results are sorted by descending F, ties broken by
// key for determinism. This is the batch recomputation the streaming
// PredictorAccum is proven equal to; the campaign itself ranks from the
// accumulator, and this form remains for one-shot callers and as the
// differential-test oracle.
func RankPredictors(prog *ir.Program, failing, successful []*RunTrace, beta float64) []Ranked {
	type agg struct {
		p    Predictor
		f, s int
	}
	all := make(map[string]*agg)
	add := func(rt *RunTrace, isFail bool) {
		for key, p := range ExtractPredicates(prog, rt) {
			a := all[key]
			if a == nil {
				a = &agg{p: p}
				all[key] = a
			}
			if isFail {
				a.f++
			} else {
				a.s++
			}
		}
	}
	for _, rt := range failing {
		add(rt, true)
	}
	for _, rt := range successful {
		add(rt, false)
	}
	var out []Ranked
	for _, a := range all {
		p, r, f := stats.PrecisionRecallF(a.f, a.s, len(failing), beta)
		out = append(out, Ranked{Predictor: a.p, Fail: a.f, Succ: a.s, P: p, R: r, F: f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].F != out[j].F {
			return out[i].F > out[j].F
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// minPredictorF is the F-measure floor below which a kind's best
// predictor is not worth showing: Gist favors precision (β=0.5) exactly
// so that developers are not misled by weakly-correlated events.
const minPredictorF = 0.3

// BestPerKind returns the highest-ranked predictor of each kind, in kind
// order — the events a failure sketch highlights (dotted rectangles in
// Figs. 1, 7, 8). Kinds whose best predictor correlates too weakly with
// the failure are omitted.
func BestPerKind(ranked []Ranked) []Ranked {
	var out []Ranked
	for _, kind := range []PredictorKind{PredOrder, PredValue, PredBranch} {
		for _, r := range ranked {
			if r.Kind == kind && r.Fail > 0 {
				if r.F >= minPredictorF {
					out = append(out, r)
				}
				break
			}
		}
	}
	return out
}
