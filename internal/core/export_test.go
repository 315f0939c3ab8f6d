package core

import (
	"encoding/json"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm/interp"
)

// OnInterp is the engine seam of exec (engine.go), reachable only from
// this directory's tests: the same diagnosis, or the same plan's runs, on
// the reference interpreter.
func (c Config) OnInterp() Config { c.exec = interp.Run; return c }
func (p *Plan) OnInterp() *Plan   { p.exec = interp.Run; return p }

// Flow lets core_test read a run's flow the way a sketch does.
func (rt *RunTrace) Flow(prog *ir.Program) map[int][]int { return rt.flow(prog) }

// CampaignFingerprint lets core_test compare whole diagnoses.
var CampaignFingerprint = campaignFingerprint

func TestSketchJSONRoundTrip(t *testing.T) {
	plan, failing, ranked := buildFixture(t)
	sk := buildSketch("json fixture", plan, failing, failing.flow(plan.Prog), ranked, nil)
	data, err := sk.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back SketchJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if back.Title != "json fixture" || back.FailureKind == "" {
		t.Errorf("header: %+v", back)
	}
	if len(back.Steps) != len(sk.Steps) {
		t.Fatalf("steps: %d vs %d", len(back.Steps), len(sk.Steps))
	}
	if !back.Steps[len(back.Steps)-1].IsFailure {
		t.Error("failure flag lost")
	}
	// Value annotations survive as pointers (present vs absent).
	annotated := 0
	for _, s := range back.Steps {
		if s.Value != nil {
			annotated++
		}
	}
	if annotated == 0 {
		t.Error("value annotations lost in JSON")
	}
	if len(back.Predictors) == 0 {
		t.Error("predictors lost in JSON")
	}
	for _, p := range back.Predictors {
		if p.Kind == "" || len(p.Lines) == 0 {
			t.Errorf("malformed predictor: %+v", p)
		}
	}
}
