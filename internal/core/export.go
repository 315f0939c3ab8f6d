package core

import "encoding/json"

// The paper integrated Gist with KCachegrind so developers could navigate
// sketches in a viewer; the equivalent integration surface here is a
// stable JSON encoding of the sketch for external tools.

// SketchJSON is the machine-readable form of a failure sketch.
type SketchJSON struct {
	Title       string           `json:"title"`
	FailureKind string           `json:"failure_kind"`
	FailureLine int              `json:"failure_line"`
	Threads     []int            `json:"threads"`
	Steps       []SketchStepJSON `json:"steps"`
	Predictors  []PredictorJSON  `json:"predictors"`
	Refined     []int            `json:"refined_lines,omitempty"`
}

// SketchStepJSON is one sketch row.
type SketchStepJSON struct {
	Step      int    `json:"step"`
	Thread    int    `json:"thread"`
	Line      int    `json:"line"`
	Text      string `json:"text"`
	Value     *int64 `json:"value,omitempty"`
	Highlight bool   `json:"highlight,omitempty"`
	IsFailure bool   `json:"is_failure,omitempty"`
}

// PredictorJSON is one ranked failure predictor.
type PredictorJSON struct {
	Kind      string  `json:"kind"`
	Desc      string  `json:"desc"`
	Pattern   string  `json:"pattern,omitempty"`
	Lines     []int   `json:"lines"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F         float64 `json:"f_measure"`
}

// toJSON converts the sketch into its exportable form.
func (sk *Sketch) toJSON() SketchJSON {
	out := SketchJSON{
		Title:       sk.Title,
		FailureKind: sk.FailureKind,
		FailureLine: sk.Report.Pos.Line,
		Threads:     sk.Threads,
	}
	for _, s := range sk.Steps {
		row := SketchStepJSON{
			Step: s.Step, Thread: s.Thread, Line: s.Line, Text: s.Text,
			Highlight: s.Highlight, IsFailure: s.IsFailure,
		}
		if s.HasValue {
			v := s.Value
			row.Value = &v
		}
		out.Steps = append(out.Steps, row)
	}
	for _, r := range sk.Predictors {
		out.Predictors = append(out.Predictors, PredictorJSON{
			Kind: r.Kind.String(), Desc: r.Desc, Pattern: r.Pattern,
			Lines: sk.lines(r.InstrIDs), Precision: r.P, Recall: r.R, F: r.F,
		})
	}
	out.Refined = sk.lines(sk.AddedByRefinement)
	return out
}

// MarshalIndentJSON renders the sketch as indented JSON.
func (sk *Sketch) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(sk.toJSON(), "", "  ")
}
