package bytecode_test

import (
	"bytes"
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
// included, must be equal. Then the machine runs again where calls of
// pure functions are skipped and threads hold their steps as credit:
// without a step hook, where the final globals must match too, as must
// the stack of every thread that holds no credit; and under two
// maskedTrackers, one flagging every function and one leaving pure
// callees unflagged (skipMask), whose masked runs must deliver the
// interpreter's relevant events. The corpus starts from every bug at four
// seeds under its own preemption mean, plus step limits that stop a
// concurrency bug's run while a decision is being charged to credit, and
// three bugs' runs inside a warm-up call that would be skipped. A corpus
// entry that is not stopped inside a warm-up call must skip one under
// skipMask.
//
//	go test -run '^$' -fuzz FuzzEngineDifferential -fuzztime 30s ./internal/vm/bytecode/
func FuzzEngineDifferential(f *testing.F) {
	type input struct {
		bug, mean uint8
		seed      int64
		limit     uint32
	}
	mustSkip := map[input]bool{}
	add := func(in input, skips bool) {
		f.Add(in.bug, in.seed, in.mean, in.limit)
		mustSkip[in] = skips
	}
	all := bugs.All()
	progs := make([]*bytecode.Program, len(all))
	skipMasks := make([][]uint8, len(all))
	for i, b := range all {
		progs[i] = bytecode.Compile(b.Program())
		skipMasks[i] = skipMask(b.Program(), progs[i])
		own := bugVMConfig(b, 0).PreemptMean
		for seed := int64(0); seed < 4; seed++ {
			add(input{uint8(i), uint8(own - 1), seed, 200_000 - 1}, true)
		}
	}
	for i, b := range all {
		midCredit, inPure := edgeLimits(progs[i], bugVMConfig(b, 1))
		own := uint8(bugVMConfig(b, 0).PreemptMean - 1)
		if b.Concurrency {
			if midCredit == 0 {
				f.Fatalf("%s: no step limit stops its run while a decision is charged to credit", b.Name)
			}
			add(input{uint8(i), own, 1, uint32(midCredit - 1)}, true)
		}
		if name := b.Name; name == "pbzip2" || name == "apache-3" || name == "deadlock" {
			add(input{uint8(i), own, 1, uint32(inPure - 1)}, false)
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
		for tid := range oracle.Threads {
			if m.Credit(tid) == 0 && !bytes.Equal(oracle.Mem.Stack(tid), m.Mem().Stack(tid)) {
				t.Fatalf("%s seed %d, no step hook: thread %d holds no credit and its stack differs between the engines", name, seed, tid)
			}
		}

		for _, v := range []struct {
			name string
			mask []uint8
		}{{"masked", newMaskedTracker(b.Program()).mask}, {"skipMask", skipMasks[i]}} {
			plain, masked := trackerWithMask(v.mask), trackerWithMask(v.mask)
			c.Hooks = plain.hooks(false)
			ref = interp.Run(b.Program(), c)
			c.Hooks = masked.hooks(true)
			outcomesEqual(t, name+"/"+v.name, seed, ref, m.Run(c))
			if d := firstDiff(masked.delivered, plain.relevant); d != "" {
				t.Fatalf("%s seed %d, %s: %s", name, seed, v.name, d)
			}
		}
		if mustSkip[input{bug, preemptMean, seed, maxSteps}] && m.Skips() == 0 {
			t.Fatalf("%s seed %d: no call skipped under skipMask", name, seed)
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
// that stops it while a decision is being charged to credit, or 0 if
// there is none, and one that stops it 100 steps into the first call of a
// pure function.
//
// A skip keeps the clock plus all credit below the step limit, so a limit
// that stops a run mid-credit lies past that sum at every skip before it.
// The run without a limit proposes the clocks of decisions charged to
// credit that lie past the sum as the last decision before the last skip
// read it (it only grows), and a run with the limit confirms one.
func edgeLimits(prog *bytecode.Program, cfg vm.Config) (midCredit, inPure int64) {
	m := bytecode.NewMachine(prog)
	threads, skips := 1, 0
	var horizon, last int64 // the clock plus all credit: before the last skip, at the last decision
	var proposed []int64
	c := cfg
	c.Hooks = vm.Hooks{
		OnSpawn: func(_, child int, _ *ir.Func, _ int64) { threads = child + 1 },
		OnSchedule: func(from, to int, clock int64) {
			h := clock
			for tid := 0; tid < threads; tid++ {
				h += m.Credit(tid)
			}
			if m.Skips() != skips {
				skips, horizon = m.Skips(), last
			}
			last = h
			if clock >= horizon && m.Credit(to) > 1 && len(proposed) < 16 {
				proposed = append(proposed, clock+1)
			}
		},
	}
	m.Run(c)
	for _, limit := range proposed {
		c := cfg
		c.MaxSteps = limit
		c.Hooks = vm.Hooks{OnSchedule: func(from, to int, clock int64) {
			if clock == limit-1 && m.Credit(to) > 1 {
				midCredit = limit
			}
		}}
		if m.Run(c); midCredit != 0 {
			break
		}
	}

	entries := map[int]bool{}
	for _, r := range prog.PureFuncs() {
		entries[r[0]] = true
	}
	c.Hooks = vm.Hooks{OnStep: func(t *vm.Thread, in *ir.Instr, clock int64) {
		if inPure == 0 && entries[in.ID] {
			inPure = clock + 100
		}
	}}
	m.Run(c)
	return midCredit, inPure
}
