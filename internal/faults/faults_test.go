package faults

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hw/watch"
)

func TestDisabledConfigInjectsNothing(t *testing.T) {
	if NewInjector(Config{}) != nil {
		t.Fatal("zero config must yield a nil injector")
	}
	var inj *Injector
	d := inj.ForRun(3, 77)
	if d.Any() {
		t.Fatalf("nil injector produced a fault: %+v", d)
	}
	// The zero decision's primitives are all pass-through.
	if d.BufBytes(0) != 0 || d.BufBytes(4096) != 4096 {
		t.Error("zero decision altered the buffer size")
	}
	buf := []byte{1, 2, 3}
	if got := d.CorruptTrace(buf); &got[0] != &buf[0] {
		t.Error("zero decision copied/corrupted the trace")
	}
	traps := []watch.Trap{{Clock: 1}, {Clock: 2}}
	out, dropped := d.ApplyTraps(traps)
	if dropped != 0 || &out[0] != &traps[0] || out[0].Clock != 1 || out[1].Clock != 2 {
		t.Error("zero decision touched the trap log")
	}
}

func TestForRunIsDeterministic(t *testing.T) {
	cfg := Composite(99, 0.5)
	a, b := NewInjector(cfg), NewInjector(cfg)
	for e := 0; e < 10; e++ {
		for seed := int64(0); seed < 20; seed++ {
			da, db := a.ForRun(e, seed), b.ForRun(e, seed)
			if da.Crash != db.Crash || da.Hang != db.Hang || da.Overflow != db.Overflow ||
				da.Corrupt != db.Corrupt || da.DropTraps != db.DropTraps ||
				da.ReorderTraps != db.ReorderTraps || da.Truncate != db.Truncate {
				t.Fatalf("endpoint %d seed %d: decisions differ across identical injectors", e, seed)
			}
		}
	}
}

func TestSeedChangesWhereFaultsLand(t *testing.T) {
	a := NewInjector(Composite(1, 0.5))
	b := NewInjector(Composite(2, 0.5))
	differs := false
	for e := 0; e < 10 && !differs; e++ {
		for seed := int64(0); seed < 20; seed++ {
			if !reflect.DeepEqual(faultsOf(a.ForRun(e, seed)), faultsOf(b.ForRun(e, seed))) {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Error("two different fleet seeds fail in exactly the same places")
	}
}

func faultsOf(d Decision) [7]interface{} {
	return [7]interface{}{d.Crash, d.Hang, d.Overflow, d.Corrupt, d.DropTraps, d.ReorderTraps, d.Truncate}
}

func TestCompositeSpreadsRate(t *testing.T) {
	c := Composite(5, 0.21)
	if !c.enabled() {
		t.Fatal("composite rate 0.21 should enable injection")
	}
	sum := c.CrashRate + c.HangRate + c.OverflowRate + c.CorruptRate +
		c.TrapDropRate + c.TrapReorderRate + c.TruncateRate
	if sum < 0.2099 || sum > 0.2101 {
		t.Errorf("per-class rates sum to %v, want 0.21", sum)
	}
	if Composite(5, 0).enabled() {
		t.Error("composite rate 0 must stay disabled")
	}
}

// Property: for any composite rate — including out-of-range garbage a
// flag could deliver — every per-class probability stays in [0, 1], the
// config validates, and the class split stays even.
func TestCompositeRateRangeProperty(t *testing.T) {
	f := func(raw int16) bool {
		rate := float64(raw) / 1000 // sweeps roughly [-32.8, 32.8]
		c := Composite(1, rate)
		if err := c.Validate(); err != nil {
			return false
		}
		var first float64
		for _, per := range c.rates() {
			if per < 0 || per > 1 {
				return false
			}
			first = per
		}
		for _, per := range c.rates() {
			if per != first { // even split across all 7 classes
				return false
			}
		}
		// In-range rates must be preserved exactly; out-of-range clamped.
		sum := 7 * first
		switch {
		case rate <= 0:
			return sum == 0
		case rate >= 1:
			return sum > 0.9999 && sum < 1.0001
		default:
			return sum > rate-1e-9 && sum < rate+1e-9
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	cases := []Config{
		{CrashRate: 1.5},
		{HangRate: -0.1},
		{OverflowRate: 2},
		{CorruptRate: math.Inf(1)},
		{TrapDropRate: -1},
		{TrapReorderRate: 1.01},
		{TruncateRate: 7},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error, got nil", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config should validate: %v", err)
	}
	if err := Composite(1, 1).Validate(); err != nil {
		t.Errorf("composite at full rate should validate: %v", err)
	}
}

func TestCorruptTraceDamagesCopy(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, CorruptRate: 1})
	d := inj.ForRun(0, 0)
	if !d.Corrupt {
		t.Fatal("CorruptRate=1 did not corrupt")
	}
	orig := make([]byte, 64)
	for i := range orig {
		orig[i] = byte(i)
	}
	snapshot := append([]byte(nil), orig...)
	got := d.CorruptTrace(orig)
	if !reflect.DeepEqual(orig, snapshot) {
		t.Error("CorruptTrace mutated the caller's buffer")
	}
	changed := 0
	for i := range got {
		if got[i] != orig[i] {
			changed++
		}
	}
	if changed == 0 || changed > 8 {
		t.Errorf("corruption flipped %d bytes, want 1..8", changed)
	}
}

func TestApplyTrapsDropAndReorder(t *testing.T) {
	traps := make([]watch.Trap, 40)
	for i := range traps {
		traps[i] = watch.Trap{InstrID: i, Clock: int64(i)}
	}
	inj := NewInjector(Config{Seed: 11, TrapDropRate: 1, TrapReorderRate: 1})
	d := inj.ForRun(0, 0)
	out, dropped := d.ApplyTraps(traps)
	if dropped == 0 || len(out) != len(traps)-dropped {
		t.Fatalf("dropped=%d len(out)=%d len(in)=%d", dropped, len(out), len(traps))
	}
	broken := false
	for i := 1; i < len(out); i++ {
		if out[i].Clock < out[i-1].Clock {
			broken = true
		}
	}
	if !broken {
		t.Error("reordering left the log in clock order")
	}
	// The input log is never mutated.
	for i := range traps {
		if traps[i].InstrID != i {
			t.Fatal("ApplyTraps mutated the input slice")
		}
	}
}

func TestDiskDecisions(t *testing.T) {
	// Disabled and nil injectors never inject.
	if NewInjector(Config{Seed: 1, DiskRate: 0}) != nil {
		t.Error("disk rate 0 must stay disabled")
	}
	var nilInj *Injector
	if nilInj.ForCheckpoint("x", 1).Kind != DiskNone {
		t.Error("nil injector produced a disk fault")
	}

	inj := NewInjector(Config{Seed: 7, DiskRate: 1})
	if inj == nil {
		t.Fatal("disk rate 1 should enable injection")
	}
	// Deterministic per (name, generation): identical injectors agree.
	other := NewInjector(Config{Seed: 7, DiskRate: 1})
	kinds := make(map[DiskKind]bool)
	for gen := uint64(0); gen < 64; gen++ {
		d := inj.ForCheckpoint("pbzip2", gen)
		if d.Kind == DiskNone {
			t.Fatalf("DiskRate=1 produced no fault at gen %d", gen)
		}
		if d2 := other.ForCheckpoint("pbzip2", gen); d2.Kind != d.Kind {
			t.Fatalf("gen %d: kinds differ across identical injectors", gen)
		}
		kinds[d.Kind] = true
	}
	if len(kinds) != 4 {
		t.Errorf("64 decisions hit %d disk-fault kinds, want all 4", len(kinds))
	}
	// The store name salts the stream: two stores fail in different
	// places.
	differs := false
	for gen := uint64(0); gen < 64 && !differs; gen++ {
		differs = inj.ForCheckpoint("a", gen).Kind != inj.ForCheckpoint("b", gen).Kind
	}
	if !differs {
		t.Error("two store names draw identical disk-fault streams")
	}
	// Decision primitives stay in range.
	d := inj.ForCheckpoint("pbzip2", 3)
	if n := d.TornLen(100); n < 0 || n >= 100 {
		t.Errorf("TornLen(100) = %d outside [0,100)", n)
	}
	if pos, mask := d.FlipByte(100); pos < 0 || pos >= 100 || mask == 0 {
		t.Errorf("FlipByte(100) = (%d, %#x) invalid", pos, mask)
	}
	// Disk-only injection never perturbs the per-run pipeline stream.
	if inj.ForRun(0, 0).Any() {
		t.Error("disk-only config injected a pipeline fault")
	}
}

func TestDiskRateValidation(t *testing.T) {
	if err := (Config{DiskRate: 1.5}).Validate(); err == nil {
		t.Error("disk rate 1.5 should fail validation")
	}
	if err := (Config{DiskRate: -0.1}).Validate(); err == nil {
		t.Error("disk rate -0.1 should fail validation")
	}
}

func TestTruncateRateSelectsAKind(t *testing.T) {
	inj := NewInjector(Config{Seed: 13, TruncateRate: 1})
	kinds := make(map[TruncateKind]bool)
	for seed := int64(0); seed < 50; seed++ {
		d := inj.ForRun(0, seed)
		if d.Truncate == TruncateNone {
			t.Fatalf("TruncateRate=1 produced no truncation (seed %d)", seed)
		}
		kinds[d.Truncate] = true
	}
	if len(kinds) != 3 {
		t.Errorf("50 decisions hit %d truncation kinds, want all 3", len(kinds))
	}
}

func TestTransportDecisions(t *testing.T) {
	// Disabled and nil injectors never inject.
	if NewInjector(Config{Seed: 1, TransportRate: 0}) != nil {
		t.Error("transport rate 0 must stay disabled")
	}
	var nilInj *Injector
	if nilInj.ForRequest("t", "a", "r", 0).Kind != TransportNone {
		t.Error("nil injector produced a transport fault")
	}

	inj := NewInjector(Config{Seed: 7, TransportRate: 1})
	if inj == nil {
		t.Fatal("transport rate 1 should enable injection")
	}
	// Deterministic per (tenant, agent, request, attempt): identical
	// injectors agree.
	other := NewInjector(Config{Seed: 7, TransportRate: 1})
	kinds := make(map[TransportKind]bool)
	for att := 0; att < 64; att++ {
		d := inj.ForRequest("acme", "agent-0", "upload/42", att)
		if d.Kind == TransportNone {
			t.Fatalf("TransportRate=1 produced no fault at attempt %d", att)
		}
		if d2 := other.ForRequest("acme", "agent-0", "upload/42", att); d2.Kind != d.Kind {
			t.Fatalf("attempt %d: kinds differ across identical injectors", att)
		}
		kinds[d.Kind] = true
	}
	if len(kinds) != 5 {
		t.Errorf("64 decisions hit %d transport-fault kinds, want all 5", len(kinds))
	}
	// Every identity component salts the stream.
	differs := func(f func(att int) TransportDecision) bool {
		for att := 0; att < 64; att++ {
			if f(att).Kind != inj.ForRequest("acme", "agent-0", "upload/42", att).Kind {
				return true
			}
		}
		return false
	}
	if !differs(func(att int) TransportDecision { return inj.ForRequest("umbrella", "agent-0", "upload/42", att) }) {
		t.Error("tenant does not salt the transport stream")
	}
	if !differs(func(att int) TransportDecision { return inj.ForRequest("acme", "agent-1", "upload/42", att) }) {
		t.Error("agent does not salt the transport stream")
	}
	if !differs(func(att int) TransportDecision { return inj.ForRequest("acme", "agent-0", "poll/42", att) }) {
		t.Error("request key does not salt the transport stream")
	}
	// Transport-only injection never perturbs the per-run or disk
	// streams.
	if inj.ForRun(0, 0).Any() {
		t.Error("transport-only config injected a pipeline fault")
	}
	if inj.ForCheckpoint("x", 1).Kind != DiskNone {
		t.Error("transport-only config injected a disk fault")
	}
}

func TestTransportCorruptBodyDamagesCopy(t *testing.T) {
	inj := NewInjector(Config{Seed: 11, TransportRate: 1})
	var d TransportDecision
	for att := 0; ; att++ {
		d = inj.ForRequest("t", "a", "r", att)
		if d.Kind == TransportCorrupt {
			break
		}
		if att > 256 {
			t.Fatal("no corrupt decision in 256 attempts at rate 1")
		}
	}
	body := []byte("0123456789abcdef")
	orig := append([]byte(nil), body...)
	out := d.CorruptBody(body)
	if string(body) != string(orig) {
		t.Error("CorruptBody mutated the input")
	}
	if string(out) == string(orig) {
		t.Error("CorruptBody left the copy undamaged")
	}
	if len(out) != len(orig) {
		t.Errorf("CorruptBody changed length %d -> %d", len(orig), len(out))
	}
	if got := d.CorruptBody(nil); got != nil {
		t.Error("CorruptBody of empty body should pass through")
	}
}

func TestTransportRateValidation(t *testing.T) {
	if err := (Config{TransportRate: 1.5}).Validate(); err == nil {
		t.Error("transport rate 1.5 should fail validation")
	}
	if err := (Config{TransportRate: -0.1}).Validate(); err == nil {
		t.Error("transport rate -0.1 should fail validation")
	}
}

func TestSlowdownDecisions(t *testing.T) {
	inj := NewInjector(Config{Seed: 7, SlowRate: 0.3})

	// Deterministic: the same (tenant, agent, task) replays exactly.
	for task := uint64(1); task <= 64; task++ {
		a := inj.ForSlowdown("acme", "ep-1", task)
		b := inj.ForSlowdown("acme", "ep-1", task)
		if a != b {
			t.Fatalf("task %d: decisions differ on replay: %+v vs %+v", task, a, b)
		}
		if a.Slow && a.Delay <= 0 {
			t.Fatalf("task %d: slow decision with non-positive delay %v", task, a.Delay)
		}
	}

	// The stream is keyed by agent: a hedged re-dispatch of the same
	// task to another agent draws an independent decision, so a hedge
	// can dodge the slowdown that stalled the first attempt.
	differs := false
	for task := uint64(1); task <= 256 && !differs; task++ {
		differs = inj.ForSlowdown("acme", "ep-1", task).Slow != inj.ForSlowdown("acme", "ep-2", task).Slow
	}
	if !differs {
		t.Fatal("per-agent slowdown streams are identical across 256 tasks at rate 0.3")
	}

	// The empirical rate must track the configured one.
	slow := 0
	const n = 2000
	for task := uint64(0); task < n; task++ {
		if inj.ForSlowdown("acme", "ep-1", task).Slow {
			slow++
		}
	}
	if got := float64(slow) / n; math.Abs(got-0.3) > 0.05 {
		t.Fatalf("empirical slow rate %.3f, want ≈ 0.3", got)
	}

	// Rate 0 and nil injectors never slow anything.
	if NewInjector(Config{Seed: 7, SlowRate: 0}) != nil {
		t.Fatal("rate-0 slowdown config must yield a nil injector")
	}
	var nilInj *Injector
	if d := nilInj.ForSlowdown("t", "a", 1); d.Slow || d.Delay != 0 {
		t.Fatalf("nil injector slowdown = %+v, want none", d)
	}
}

func TestSlowdownDoesNotPerturbRunStream(t *testing.T) {
	// Diagnoses stay byte-identical under the slow-agent mix because
	// the slowdown stream is keyed separately: adding SlowRate to a
	// config must not move a single draw of the shared run stream.
	base := Composite(42, 0.5)
	withSlow := base
	withSlow.SlowRate = 0.5
	a, b := NewInjector(base), NewInjector(withSlow)
	for ep := 0; ep < 8; ep++ {
		for seed := int64(0); seed < 64; seed++ {
			da, db := a.ForRun(ep, seed), b.ForRun(ep, seed)
			if da.Crash != db.Crash || da.Hang != db.Hang || da.Overflow != db.Overflow ||
				da.Corrupt != db.Corrupt || da.DropTraps != db.DropTraps ||
				da.ReorderTraps != db.ReorderTraps || da.Truncate != db.Truncate {
				t.Fatalf("run decision (%d,%d) shifted when SlowRate was added: %+v vs %+v", ep, seed, da, db)
			}
		}
	}
}

func TestSlowdownRateValidation(t *testing.T) {
	if err := (Config{SlowRate: 1.5}).Validate(); err == nil {
		t.Error("slow rate 1.5 should fail validation")
	}
	if err := (Config{SlowRate: -0.1}).Validate(); err == nil {
		t.Error("slow rate -0.1 should fail validation")
	}
}
