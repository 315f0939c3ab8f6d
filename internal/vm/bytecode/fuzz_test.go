package bytecode_test

import (
	"fmt"
	"testing"

	"repro/internal/bugs"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
	"repro/internal/vm/interp"
)

// FuzzEngineDifferential runs a suite bug on both engines at a fuzzed
// seed, preemption mean (1..24) and step limit (1..200 000). The outcomes
// and the OnSchedule, OnSpawn, OnLoad, OnStore and OnStep streams, clocks
// included, must be equal. Then the machine runs again twice where its
// threads run ahead: without a step hook, where LocalAddr+Load pairs also
// retire in one dispatch, and the final globals must match too; and under
// maskedTracker, whose masked run must deliver the interpreter's relevant
// events. The corpus starts from every bug at four seeds under its own
// preemption mean, plus step limits that stop a run while a decision is
// being charged to credit and right after a fused LocalAddr.
//
//	go test -run '^$' -fuzz FuzzEngineDifferential -fuzztime 30s ./internal/vm/bytecode/
func FuzzEngineDifferential(f *testing.F) {
	all := bugs.All()
	progs := make([]*bytecode.Program, len(all))
	for i, b := range all {
		progs[i] = bytecode.Compile(b.Program())
		own := bugVMConfig(b, 0).PreemptMean
		for seed := int64(0); seed < 4; seed++ {
			f.Add(uint8(i), seed, uint8(own-1), uint32(200_000-1))
		}
	}
	for i, b := range all {
		if name := b.Name; name == "pbzip2" || name == "apache-3" || name == "deadlock" {
			midCredit, afterLocalAddr := edgeLimits(progs[i], bugVMConfig(b, 1))
			own := uint8(bugVMConfig(b, 0).PreemptMean - 1)
			f.Add(uint8(i), int64(1), own, uint32(midCredit-1))
			f.Add(uint8(i), int64(1), own, uint32(afterLocalAddr-1))
		}
	}
	f.Fuzz(func(t *testing.T, bug uint8, seed int64, preemptMean uint8, maxSteps uint32) {
		i := int(bug) % len(all)
		b := all[i]
		cfg := vm.Config{Seed: seed, PreemptMean: 1 + int(preemptMean)%24, MaxSteps: 1 + int64(maxSteps%200_000)}
		if n := uint64(len(b.Workloads)); n > 0 {
			cfg.Workload = b.Workloads[uint64(seed)%n]
		}
		name := fmt.Sprintf("%s/mean=%d/limit=%d", b.Name, cfg.PreemptMean, cfg.MaxSteps)

		var want, got, gotNoStep []hookEvent
		c := cfg
		c.Hooks = streamHooks(&want, true)
		oracle := interp.New(b.Program(), c)
		ref := oracle.Run()
		c.Hooks = streamHooks(&got, true)
		out, _ := progs[i].Run(c)
		outcomesEqual(t, name, seed, ref, out)
		if d := firstDiff(want, got); d != "" {
			t.Fatalf("%s seed %d: %s", name, seed, d)
		}

		c.Hooks = streamHooks(&gotNoStep, false)
		m := bytecode.NewMachine(progs[i])
		out = m.Run(c)
		outcomesEqual(t, name+"/no-step-hook", seed, ref, out)
		var wantNoStep []hookEvent
		for _, e := range want {
			if e.kind != 's' {
				wantNoStep = append(wantNoStep, e)
			}
		}
		if d := firstDiff(wantNoStep, gotNoStep); d != "" {
			t.Fatalf("%s seed %d, no step hook: %s", name, seed, d)
		}
		globalsEqual(t, name+"/no-step-hook", b.Program(), oracle.Mem, m.Mem())

		plain, masked := newMaskedTracker(b.Program()), newMaskedTracker(b.Program())
		c.Hooks = plain.hooks(false)
		ref = interp.Run(b.Program(), c)
		c.Hooks = masked.hooks(true)
		out, _ = progs[i].Run(c)
		outcomesEqual(t, name+"/masked", seed, ref, out)
		if d := firstDiff(masked.delivered, plain.relevant); d != "" {
			t.Fatalf("%s seed %d, masked: %s", name, seed, d)
		}
	})
}

// streamHooks records OnSchedule, OnSpawn, OnLoad and OnStore, and OnStep
// if steps is set.
func streamHooks(into *[]hookEvent, steps bool) vm.Hooks {
	data := func(t *vm.Thread, in *ir.Instr, addr, val, size, clock int64) {
		kind := byte('l')
		if in.Op == ir.OpStore {
			kind = 'w'
		}
		*into = append(*into, hookEvent{kind: kind, tid: t.ID, id: in.ID, a: addr, b: val<<8 | size, clock: clock})
	}
	h := vm.Hooks{
		OnSchedule: scheduleRecorder(into),
		OnSpawn: func(parent, child int, fn *ir.Func, clock int64) {
			*into = append(*into, hookEvent{kind: 'p', tid: parent, id: child, a: int64(fn.ID), clock: clock})
		},
		OnLoad:  data,
		OnStore: data,
	}
	if steps {
		h.OnStep = func(t *vm.Thread, in *ir.Instr, clock int64) {
			*into = append(*into, hookEvent{kind: 's', tid: t.ID, id: in.ID, clock: clock})
		}
	}
	return h
}

// globalsEqual requires the same value in every global word.
func globalsEqual(t *testing.T, name string, prog *ir.Program, want, got *vm.Memory) {
	t.Helper()
	for i := range prog.Globals {
		addr := vm.GlobalsBase + int64(i)*8
		a, _ := want.Load(addr, 8)
		b, _ := got.Load(addr, 8)
		if a != b {
			t.Fatalf("%s: global %d is %d on the interpreter, %d on the machine", name, i, a, b)
		}
	}
}

// edgeLimits returns two step limits for a run of prog under cfg: one
// that stops it while a decision is being charged to credit, and one
// that stops it right after a fused LocalAddr, before its load.
func edgeLimits(prog *bytecode.Program, cfg vm.Config) (midCredit, afterLocalAddr int64) {
	fused := map[int]bool{}
	for _, pc := range prog.FusedPairs() {
		fused[pc] = true
	}
	m := bytecode.NewMachine(prog)
	cfg.Hooks.OnSchedule = func(from, to int, clock int64) {
		if midCredit == 0 && clock > 1000 && m.Credit(to) > 1 {
			midCredit = clock + 1
		}
	}
	m.Run(cfg)
	cfg.Hooks = vm.Hooks{OnStep: func(t *vm.Thread, in *ir.Instr, clock int64) {
		if afterLocalAddr == 0 && clock > 1000 && fused[in.ID] {
			afterLocalAddr = clock + 1
		}
	}}
	m.Run(cfg)
	return midCredit, afterLocalAddr
}
