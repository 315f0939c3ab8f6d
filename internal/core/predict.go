package core

import (
	"cmp"
	"fmt"
	"slices"
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
	// statements plus the predicate on them, never runtime addresses):
	// a predKey, formatted.
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

// predKey identifies a predictor across runs: what Predictor.Key spells
// out, unformatted — the kind, the pattern, the statements and, for an
// exact-value predictor, the value; never a runtime address. It is
// comparable, so a run's predicates are a set of keys, and a
// predictor's Key, Desc and InstrIDs are built once per ranking
// (predictor), not once per run that holds it.
type predKey struct {
	kind    PredictorKind
	pattern string // Predictor.Pattern; "" for an exact value
	n       int    // statements in ids
	ids     [3]int // Predictor.InstrIDs, in pattern order
	value   int64  // Predictor.Value
}

// branchPatterns and the access patterns are indexed by outcome: taken
// or not, and per access whether it wrote.
var (
	branchPatterns = [2]string{"not-taken", "taken"}
	pairPatterns   = [2][2]string{{"RR", "RW"}, {"WR", "WW"}}
	triplePatterns = [2][2][2]string{
		{{"RRR", "RRW"}, {"RWR", "RWW"}},
		{{"WRR", "WRW"}, {"WWR", "WWW"}},
	}
)

// b2i is 1 for true, 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// extractPredicates calls add with the key of every predictor that
// holds in one run, some more than once. Runs whose PT trace failed to
// decode (DecodeErr) contribute no branch predictors even if stale
// branch data is still attached — corrupt TNT bits make
// convincing-looking lies — and traps naming instructions outside the
// program are skipped rather than trusted.
func extractPredicates(prog *ir.Program, rt *RunTrace, add func(predKey)) {
	valid := func(id int) bool { return id >= 0 && id < len(prog.Instrs) }

	// Branch predictors from decoded control flow.
	if rt.DecodeErr == nil {
		for _, obs := range rt.Branches {
			for _, o := range obs {
				if valid(o.IP) {
					add(predKey{kind: PredBranch, pattern: branchPatterns[b2i(o.Taken)], n: 1, ids: [3]int{o.IP}})
				}
			}
		}
	}

	// Value predictors from watchpoint traps: the value read or written
	// by each watched statement — both the exact value and its range
	// class (§6's future-work range/inequality predicates: exact values
	// like heap addresses vary across runs, but "negative", "zero", and
	// "positive" aggregate). A range key carries no value: the pattern
	// is the class, and a value in the key would split it again.
	var byAddr []int // indexes into rt.Traps, grouped by address below
	for i, tr := range rt.Traps {
		if !valid(tr.InstrID) {
			continue
		}
		add(predKey{kind: PredValue, n: 1, ids: [3]int{tr.InstrID}, value: tr.Val})
		add(predKey{kind: PredValue, pattern: rangeClass(tr.Val), n: 1, ids: [3]int{tr.InstrID}})
		byAddr = append(byAddr, i)
	}

	// Order predictors: per watched address, adjacent cross-thread access
	// pairs and t1-t2-t1 triples over the totally ordered trap log
	// (Fig. 5 and Fig. 6). The stable sort keeps each address's accesses
	// in log order.
	slices.SortStableFunc(byAddr, func(a, b int) int { return cmp.Compare(rt.Traps[a].Addr, rt.Traps[b].Addr) })
	for lo := 0; lo < len(byAddr); {
		hi := lo + 1
		for hi < len(byAddr) && rt.Traps[byAddr[hi]].Addr == rt.Traps[byAddr[lo]].Addr {
			hi++
		}
		seq := byAddr[lo:hi]
		lo = hi
		for k := 0; k+1 < len(seq); k++ {
			t1, t2 := rt.Traps[seq[k]], rt.Traps[seq[k+1]]
			if t1.Thread == t2.Thread || !t1.IsWrite && !t2.IsWrite {
				continue // two reads do not conflict (the paper's race patterns are WW, WR, RW)
			}
			add(predKey{
				kind: PredOrder, pattern: pairPatterns[b2i(t1.IsWrite)][b2i(t2.IsWrite)],
				n: 2, ids: [3]int{t1.InstrID, t2.InstrID},
			})
		}
		for k := 0; k+2 < len(seq); k++ {
			t1, t2, t3 := rt.Traps[seq[k]], rt.Traps[seq[k+1]], rt.Traps[seq[k+2]]
			if t1.Thread != t3.Thread || t1.Thread == t2.Thread {
				continue
			}
			pat := triplePatterns[b2i(t1.IsWrite)][b2i(t2.IsWrite)][b2i(t3.IsWrite)]
			if pat != "RWR" && pat != "WWR" && pat != "RWW" && pat != "WRW" {
				continue // only the paper's single-variable atomicity patterns (Fig. 5)
			}
			add(predKey{kind: PredOrder, pattern: pat, n: 3, ids: [3]int{t1.InstrID, t2.InstrID, t3.InstrID}})
		}
	}
}

// predictor builds the Predictor k names, with its sketch description.
func (k predKey) predictor(prog *ir.Program) Predictor {
	p := Predictor{Kind: k.kind, InstrIDs: slices.Clone(k.ids[:k.n]), Value: k.value, Pattern: k.pattern}
	a, b, c := k.ids[0], k.ids[1], k.ids[2]
	switch {
	case k.kind == PredBranch:
		p.Key = fmt.Sprintf("br:%d:%s", a, k.pattern)
		p.Desc = fmt.Sprintf("branch at %s %s", prog.Instrs[a].Pos, k.pattern)
	case k.kind == PredValue && k.pattern == "":
		p.Key = fmt.Sprintf("val:%d:%d", a, k.value)
		p.Desc = fmt.Sprintf("%s == %d", describeAccess(prog, a), k.value)
	case k.kind == PredValue:
		p.Key = fmt.Sprintf("rng:%d:%s", a, k.pattern)
		p.Desc = fmt.Sprintf("%s %s", describeAccess(prog, a), rangeDesc[k.pattern])
	case k.n == 2:
		p.Key = fmt.Sprintf("ord:%s:%d<%d", k.pattern, a, b)
		p.Desc = fmt.Sprintf("%s: %s before %s", k.pattern, describeAccess(prog, a), describeAccess(prog, b))
	default:
		p.Key = fmt.Sprintf("ord:%s:%d,%d,%d", k.pattern, a, b, c)
		p.Desc = fmt.Sprintf("%s atomicity violation: %s / %s / %s", k.pattern,
			describeAccess(prog, a), describeAccess(prog, b), describeAccess(prog, c))
	}
	return p
}

// rangeClass buckets a value for range/inequality predicates.
func rangeClass(v int64) string {
	switch {
	case v < 0:
		return "neg"
	case v == 0:
		return "zero"
	default:
		return "pos"
	}
}

// rangeDesc is how a sketch shows each range class.
var rangeDesc = map[string]string{"neg": "< 0", "zero": "== 0", "pos": "> 0"}

// describeAccess renders a memory-access statement for humans: its source
// text if available, else its position.
func describeAccess(prog *ir.Program, id int) string {
	in := prog.Instrs[id]
	if txt := prog.SourceLine(in.Pos.Line); txt != "" {
		return fmt.Sprintf("`%s` (line %d)", txt, in.Pos.Line)
	}
	return in.Pos.String()
}

// rankPredictors counts, per predictor, the failing and the successful
// runs it holds in and ranks every predictor by its F-measure with the
// given beta (the paper uses β=0.5 to favor precision). Results are
// sorted by descending F, ties broken by key for determinism.
// Campaign.Rank calls it once per iteration over the populations the
// iteration admitted. Every predictor's metadata is a function of its
// key, so the output does not depend on the order the runs arrived in.
func rankPredictors(prog *ir.Program, failing, successful []*RunTrace, beta float64) []Ranked {
	// last is the run that counted the predictor most recently, so a run
	// counts each of its predictors once.
	type tally struct{ f, s, last int }
	all := make(map[predKey]tally)
	run := 0
	count := func(rt *RunTrace, isFail bool) {
		run++
		extractPredicates(prog, rt, func(k predKey) {
			t := all[k]
			if t.last == run {
				return
			}
			t.last = run
			if isFail {
				t.f++
			} else {
				t.s++
			}
			all[k] = t
		})
	}
	for _, rt := range failing {
		count(rt, true)
	}
	for _, rt := range successful {
		count(rt, false)
	}
	var out []Ranked
	for k, t := range all {
		p, r, f := stats.PrecisionRecallF(t.f, t.s, len(failing), beta)
		out = append(out, Ranked{Predictor: k.predictor(prog), Fail: t.f, Succ: t.s, P: p, R: r, F: f})
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

// bestPerKind returns the highest-ranked predictor of each kind, in kind
// order — the events a failure sketch highlights (dotted rectangles in
// Figs. 1, 7, 8). Kinds whose best predictor correlates too weakly with
// the failure are omitted.
func bestPerKind(ranked []Ranked) []Ranked {
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
