package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/stats"
	"repro/internal/vm"
)

// SketchStep is one row of a failure sketch: a statement executed by one
// thread at one logical time step.
type SketchStep struct {
	Step   int
	Thread int
	Line   int
	Text   string
	// InstrIDs are the sketch instructions this row stands for.
	InstrIDs []int
	// HasValue/Value annotate the row with the data value observed by
	// data-flow tracking (dotted-rectangle values in Figs. 1 and 7).
	HasValue bool
	Value    int64
	// Highlight marks rows that participate in the best failure
	// predictors.
	Highlight bool
	// IsFailure marks the failing statement.
	IsFailure bool
}

// Sketch is a failure sketch: the minimal statement timeline plus the
// highest-ranked failure predictors. Its JSON form is the checkpoint's
// copy of the sketch; the program and report pointers are not part of
// it and are reattached from the restoring configuration.
type Sketch struct {
	Title       string            `json:"title"`
	FailureKind string            `json:"failure_kind"`
	Report      *vm.FailureReport `json:"-"`
	Prog        *ir.Program       `json:"-"`

	Threads []int        `json:"threads,omitempty"`
	Steps   []SketchStep `json:"steps,omitempty"`

	// Predictors holds the best predictor of each kind (order, value,
	// branch), highest F-measure first within its kind.
	Predictors []Ranked `json:"predictors,omitempty"`
	// AllRanked is the full ranking, for inspection and experiments.
	AllRanked []Ranked `json:"all_ranked,omitempty"`

	// AddedByRefinement lists instructions that entered the sketch via
	// runtime data-flow discovery rather than the static slice.
	AddedByRefinement []int `json:"added_by_refinement,omitempty"`
	// LowConfidence marks a sketch ranked from fewer validated runs than
	// the server's quorum (a degraded fleet starved the iteration); the
	// predictors are still the best available but statistically weaker.
	LowConfidence bool `json:"low_confidence,omitempty"`
}

// attach returns a copy of sk bound to prog and report, or nil for a
// nil sketch.
func (sk *Sketch) attach(prog *ir.Program, report *vm.FailureReport) *Sketch {
	if sk == nil {
		return nil
	}
	cp := *sk
	cp.Prog, cp.Report = prog, report
	return &cp
}

// sketchEvent is an internal pre-step: a (thread, line) statement
// occurrence with ordering hints.
type sketchEvent struct {
	thread  int
	line    int
	flowPos int
	instrs  []int
	clock   int64 // anchored total-order clock; -1 if unanchored
	hasVal  bool
	val     int64
	isFail  bool
}

// BuildSketch assembles a failure sketch from the tracked window, the
// failing run's traces, and the ranked predictors.
//
// Per-thread statement order comes from the decoded PT flow; cross-thread
// order comes only from watchpoint trap clocks (PT is per-core), exactly
// the partial order the paper's design can honestly produce. Unanchored
// statements stay in thread order, placed after their thread's latest
// anchored event.
func BuildSketch(title string, plan *Plan, failing *RunTrace, ranked []Ranked, added []int) *Sketch {
	prog := plan.Prog
	sk := &Sketch{
		Title:       title,
		FailureKind: failing.Outcome.Report.Kind.String(),
		Report:      failing.Outcome.Report,
		Prog:        prog,
		AllRanked:   ranked,
		Predictors:  BestPerKind(ranked),
	}
	include := make(map[int]bool)
	for _, id := range plan.Tracked {
		include[id] = true
	}
	for _, id := range added {
		include[id] = true
	}
	sk.AddedByRefinement = append(sk.AddedByRefinement, added...)

	// With control-flow tracking, keep only statements that actually
	// executed in this failing run: its decoded flow, the failing
	// instruction, and what refinement added. Without it, the whole
	// window stays.
	ran := map[int]bool{failing.Outcome.Report.InstrID: true}
	for _, id := range added {
		ran[id] = true
	}
	for _, flow := range failing.Flow {
		for _, id := range flow {
			ran[id] = true
		}
	}
	executed := func(id int) bool { return !plan.Feats.ControlFlow || ran[id] }

	// Last trap per (thread, instr): anchors and value annotations.
	lastTrap := make(map[trapKey]int64)
	lastVal := make(map[trapKey]int64)
	for _, tr := range failing.Traps {
		k := trapKey{tr.Thread, tr.InstrID}
		lastTrap[k] = tr.Clock
		lastVal[k] = tr.Val
	}

	// Collect per-(thread, line) events.
	events := sk.collectEvents(plan, failing, include, executed, lastTrap, lastVal)

	// Effective clocks: anchored events keep their trap clock; unanchored
	// events inherit the last anchored clock seen in their thread.
	byThread := make(map[int][]*sketchEvent)
	for i := range events {
		e := &events[i]
		byThread[e.thread] = append(byThread[e.thread], e)
	}
	var threads []int
	for tid := range byThread {
		threads = append(threads, tid)
	}
	sort.Ints(threads)
	sk.Threads = threads
	for _, tid := range threads {
		evs := byThread[tid]
		sort.Slice(evs, func(i, j int) bool { return evs[i].flowPos < evs[j].flowPos })
		last := int64(-1)
		for _, e := range evs {
			if e.clock >= 0 {
				last = e.clock
			} else {
				e.clock = last
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if a.isFail != b.isFail {
			return b.isFail // failure row last
		}
		if a.clock != b.clock {
			return a.clock < b.clock
		}
		if a.thread != b.thread {
			return a.thread < b.thread
		}
		return a.flowPos < b.flowPos
	})

	highlight := make(map[int]bool)
	for _, r := range sk.Predictors {
		for _, id := range r.InstrIDs {
			highlight[id] = true
		}
	}
	for i := range events {
		e := &events[i]
		hl := false
		for _, id := range e.instrs {
			if highlight[id] {
				hl = true
			}
		}
		sk.Steps = append(sk.Steps, SketchStep{
			Step:      i + 1,
			Thread:    e.thread,
			Line:      e.line,
			Text:      prog.SourceLine(e.line),
			InstrIDs:  e.instrs,
			HasValue:  e.hasVal,
			Value:     e.val,
			Highlight: hl,
			IsFailure: e.isFail,
		})
	}
	return sk
}

// trapKey identifies the last trap of one instruction on one thread.
type trapKey struct{ thread, instr int }

func (sk *Sketch) collectEvents(plan *Plan, failing *RunTrace,
	include map[int]bool, executed func(int) bool,
	lastTrap, lastVal map[trapKey]int64) []sketchEvent {

	prog := plan.Prog
	report := failing.Outcome.Report
	type lkey struct {
		thread, line int
	}
	byLine := make(map[lkey]*sketchEvent)
	note := func(thread, line, flowPos int, id int) {
		if line <= 0 {
			return
		}
		k := lkey{thread, line}
		e := byLine[k]
		if e == nil {
			e = &sketchEvent{thread: thread, line: line, clock: -1}
			byLine[k] = e
		}
		if flowPos >= e.flowPos {
			e.flowPos = flowPos
		}
		found := false
		for _, x := range e.instrs {
			if x == id {
				found = true
			}
		}
		if !found {
			e.instrs = append(e.instrs, id)
		}
		tk := trapKey{thread, id}
		if c, ok := lastTrap[tk]; ok && c > e.clock {
			e.clock = c
			e.hasVal = true
			e.val = lastVal[tk]
		}
	}

	if plan.Feats.ControlFlow && len(failing.Flow) > 0 {
		for tid, flow := range failing.Flow {
			for pos, id := range flow {
				if include[id] && executed(id) {
					note(tid, prog.Instrs[id].Pos.Line, pos, id)
				}
			}
		}
		// Refinement-added statements may fall outside traced regions;
		// anchor them via their traps.
		for _, tr := range failing.Traps {
			if include[tr.InstrID] {
				note(tr.Thread, prog.Instrs[tr.InstrID].Pos.Line, 1<<30, tr.InstrID)
			}
		}
	} else {
		// Static-only sketch: window statements in program order on the
		// failing thread's column.
		ids := append([]int(nil), plan.Tracked...)
		sort.Ints(ids)
		for pos, id := range ids {
			note(report.ThreadID, prog.Instrs[id].Pos.Line, pos, id)
		}
	}
	// The failing statement always appears.
	note(report.ThreadID, report.Pos.Line, 1<<30, report.InstrID)

	var events []sketchEvent
	for _, e := range byLine {
		if e.line == report.Pos.Line && e.thread == report.ThreadID {
			e.isFail = true
		}
		events = append(events, *e)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].thread != events[j].thread {
			return events[i].thread < events[j].thread
		}
		return events[i].line < events[j].line
	})
	return events
}

// Lines returns the distinct source lines of the sketch in step order.
func (sk *Sketch) Lines() []int {
	var lines []int
	seen := make(map[int]bool)
	for _, s := range sk.Steps {
		if !seen[s.Line] {
			seen[s.Line] = true
			lines = append(lines, s.Line)
		}
	}
	return lines
}

// Render draws the sketch in the two-column style of Figs. 1, 7 and 8.
func (sk *Sketch) Render() string {
	const colWidth = 50
	var b strings.Builder
	fmt.Fprintf(&b, "Failure Sketch for %s\n", sk.Title)
	fmt.Fprintf(&b, "Type: %s\n", sk.FailureKind)
	if sk.LowConfidence {
		b.WriteString("Confidence: LOW (ranked below validated-run quorum)\n")
	}
	b.WriteString("\n")
	b.WriteString("Time ")
	for _, tid := range sk.Threads {
		fmt.Fprintf(&b, "%-*s", colWidth, fmt.Sprintf("Thread T%d", tid))
	}
	b.WriteString("\n")
	col := make(map[int]int)
	for i, tid := range sk.Threads {
		col[tid] = i
	}
	for _, s := range sk.Steps {
		fmt.Fprintf(&b, "%4d ", s.Step)
		text := s.Text
		if s.HasValue {
			text += fmt.Sprintf("   [= %d]", s.Value)
		}
		if s.Highlight {
			text = "| " + text + " |" // dotted-rectangle stand-in
		}
		if s.IsFailure {
			text += "   <-- FAILURE"
		}
		c := col[s.Thread]
		b.WriteString(strings.Repeat(" ", c*colWidth))
		if len(text) > colWidth-2 && c < len(sk.Threads)-1 {
			text = text[:colWidth-2]
		}
		b.WriteString(text)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\nFailure: %s\n", sk.FailureKind)
	if len(sk.Predictors) > 0 {
		b.WriteString("Best failure predictors (F-measure, beta=0.5):\n")
		for i, r := range sk.Predictors {
			fmt.Fprintf(&b, "  %d. [%s] %s   (P=%.2f R=%.2f F=%.2f)\n", i+1, r.Kind, r.Desc, r.P, r.R, r.F)
		}
	}
	if len(sk.AddedByRefinement) > 0 {
		var lines []string
		seen := map[int]bool{}
		for _, id := range sk.AddedByRefinement {
			ln := sk.Prog.Instrs[id].Pos.Line
			if !seen[ln] {
				seen[ln] = true
				lines = append(lines, fmt.Sprintf("%d", ln))
			}
		}
		fmt.Fprintf(&b, "Statements discovered by data-flow refinement: lines %s\n", strings.Join(lines, ", "))
	}
	return b.String()
}

// IdealSketch is the hand-written ground truth for one bug, used by the
// §5.2 accuracy evaluation: the source lines a perfect sketch contains
// and the cross-thread orderings it must show.
type IdealSketch struct {
	// Lines are the source lines of the ideal sketch.
	Lines []int
	// Order lists (earlier line, later line) pairs that the sketch must
	// present in that order — the partial order of the key accesses.
	Order [][2]int
}

// Accuracy computes the relevance, ordering and overall accuracy of the
// sketch against the ideal, as defined in §5.2 (relevance = Jaccard over
// instructions; ordering = 100·(1 − normalized Kendall tau)).
func (sk *Sketch) Accuracy(ideal IdealSketch) (relevance, ordering, overall float64) {
	idealLines := make(map[int]bool, len(ideal.Lines))
	for _, ln := range ideal.Lines {
		idealLines[ln] = true
	}
	// Both sketches are read as whole source lines; compare the
	// instruction sets those lines denote (the paper reports sizes and
	// accuracy in LLVM instructions but sketches are line-granular).
	sketchLines := make(map[int]bool)
	for _, st := range sk.Steps {
		sketchLines[st.Line] = true
	}
	idealSet := make(map[int]bool)
	sketchSet := make(map[int]bool)
	for _, in := range sk.Prog.Instrs {
		if idealLines[in.Pos.Line] {
			idealSet[in.ID] = true
		}
		if sketchLines[in.Pos.Line] {
			sketchSet[in.ID] = true
		}
	}
	relevance = stats.Jaccard(sketchSet, idealSet)

	// Ordering: first step at which each line appears.
	firstStep := make(map[int]int)
	for _, s := range sk.Steps {
		if _, ok := firstStep[s.Line]; !ok {
			firstStep[s.Line] = s.Step
		}
	}
	disagree, pairs := 0, 0
	for _, p := range ideal.Order {
		sa, oka := firstStep[p[0]]
		sb, okb := firstStep[p[1]]
		if !oka || !okb {
			continue
		}
		pairs++
		if sa >= sb {
			disagree++
		}
	}
	ordering = stats.OrderingAccuracy(disagree, pairs)
	overall = (relevance + ordering) / 2
	return relevance, ordering, overall
}
