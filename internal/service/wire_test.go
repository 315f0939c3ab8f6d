package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hw/pt"
	"repro/internal/hw/watch"
	"repro/internal/vm"
)

func TestTraceSurvivesWireRoundTrip(t *testing.T) {
	meter := cost.MeterFromMC(1000, 250)
	rt := &core.RunTrace{
		Spec:    core.RunSpec{EndpointID: 3, Seed: 99, PreemptMean: 4, MaxSteps: 1000},
		Outcome: &vm.Outcome{Failed: true, Exit: 2, Steps: 512, Prints: []string{"boom"}},
		Flow:    map[int][]int{0: {1, 2, 3}, 1: {4, 5}},
		Branches: map[int][]pt.BranchObs{
			0: {{IP: 2, Taken: true}, {IP: 3, Taken: false}},
		},
		Traps:         []watch.Trap{{Slot: 0, Addr: 64, Val: 7, Size: 8, IsWrite: true, InstrID: 2, Thread: 1, Clock: 12}},
		Meter:         meter,
		SalvagedCores: 1,
		Late:          false,
		DroppedTraps:  3,
	}

	// JSON the wire form, as the transport would.
	w := EncodeTrace(rt)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var w2 WireTrace
	if err := json.Unmarshal(data, &w2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	got := DecodeTrace(&w2)

	if !reflect.DeepEqual(got.Spec, rt.Spec) {
		t.Errorf("spec: got %+v want %+v", got.Spec, rt.Spec)
	}
	if !reflect.DeepEqual(got.Outcome, rt.Outcome) {
		t.Errorf("outcome: got %+v want %+v", got.Outcome, rt.Outcome)
	}
	if !reflect.DeepEqual(got.Flow, rt.Flow) {
		t.Errorf("flow: got %v want %v", got.Flow, rt.Flow)
	}
	if !reflect.DeepEqual(got.Branches, rt.Branches) {
		t.Errorf("branches: got %v want %v", got.Branches, rt.Branches)
	}
	if !reflect.DeepEqual(got.Traps, rt.Traps) {
		t.Errorf("traps: got %v want %v", got.Traps, rt.Traps)
	}
	if got.Meter != rt.Meter {
		t.Errorf("meter: got %+v want %+v", got.Meter, rt.Meter)
	}
	if got.SalvagedCores != rt.SalvagedCores || got.DroppedTraps != rt.DroppedTraps {
		t.Errorf("counters did not round-trip: got %+v", got)
	}
}

func TestNilTraceStaysNil(t *testing.T) {
	if EncodeTrace(nil) != nil {
		t.Fatal("EncodeTrace(nil) != nil")
	}
	if DecodeTrace(nil) != nil {
		t.Fatal("DecodeTrace(nil) != nil")
	}
}

func TestDecodeErrSurvivesAsString(t *testing.T) {
	rt := &core.RunTrace{
		Flow:      map[int][]int{},
		DecodeErr: errors.New("pt: packet stream corrupt at byte 12"),
	}
	w := EncodeTrace(rt)
	got := DecodeTrace(w)
	if got.DecodeErr == nil || got.DecodeErr.Error() != rt.DecodeErr.Error() {
		t.Fatalf("decode err = %v, want %v", got.DecodeErr, rt.DecodeErr)
	}
}
