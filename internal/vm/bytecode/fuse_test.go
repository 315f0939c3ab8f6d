package bytecode_test

// A LocalAddr whose result the next instruction loads retires both in
// one dispatch, but only when nothing observable happens between them:
// the load is a plain instruction of its own, and runs alone wherever the
// quantum, the step limit or the step hook stands between the two. These
// tests put each of those edges on a fused pair and hold the engine to
// the interpreter there.

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
	"repro/internal/vm/interp"
)

// fuseSrc runs two threads through loops over locals; the loop header,
// a branch target, starts with a fused pair (i < n loads i first).
const fuseSrc = `
global int shared = 0;
void spin(int n) {
	int s = 0;
	int i = 0;
	while (i < n) {
		s = s + i;
		i = i + 1;
	}
	shared = shared + s;
}
int main() {
	int t = spawn(spin, 30);
	spin(20);
	join(t);
	return shared;
}`

// fusedProgram compiles fuseSrc and checks the pairs the compiler fused:
// each is a LocalAddr whose register the very next IR instruction, a
// Load, reads, so the load keeps its own ID and code index. One pair
// starts the loop header, a branch target that the loop entry and the
// back edge both jump to, so every test below runs through it. (The load
// of a pair cannot be a target itself: the instruction before a block's
// first is always a terminator.)
func fusedProgram(t *testing.T) (*ir.Program, *bytecode.Program, []int) {
	t.Helper()
	src := ir.MustCompile("fuse.mc", fuseSrc)
	prog := bytecode.Compile(src)
	pairs := prog.FusedPairs()
	header := false
	for _, pc := range pairs {
		la, ld := src.Instrs[pc], src.Instrs[pc+1]
		if la.Op != ir.OpLocalAddr || ld.Op != ir.OpLoad || ld.A != reg(la.Dst) {
			t.Fatalf("fused at %d: %v; %v is not a LocalAddr and a load of its result", pc, la, ld)
		}
		header = header || la.Idx == 0 && len(la.Blk.Preds) > 1
	}
	if !header {
		t.Fatalf("no fused pair (of %d) starts a block with more than one predecessor", len(pairs))
	}
	return src, prog, pairs
}

// dataHooks records every event but OnStep into tr.delivered, so the
// pairs stay fused.
func dataHooks(tr *maskedTracker) vm.Hooks {
	h := tr.hooks(false)
	h.OnStep = nil
	return h
}

// TestFusedPairQuantumEdge sweeps short quanta over the two threads, so
// that decisions run out on a fused LocalAddr many times: the load must
// then retire in the thread's run-ahead or wait for its next turn, and
// every event but OnStep must match, clocks included.
func TestFusedPairQuantumEdge(t *testing.T) {
	src, prog, _ := fusedProgram(t)
	for seed := int64(0); seed < 64; seed++ {
		for mean := 1; mean <= 4; mean++ {
			fusedBoth(t, fmt.Sprintf("quantum/mean=%d", mean), src, prog, vm.Config{Seed: seed, PreemptMean: mean})
		}
	}
}

// TestFusedPairStepLimit puts the step limit on every step of a run, so
// on every fused LocalAddr: the run must hang after exactly that many
// steps, at the load, on the same thread.
func TestFusedPairStepLimit(t *testing.T) {
	src, prog, _ := fusedProgram(t)
	full := interp.Run(src, vm.Config{Seed: 3, PreemptMean: 2})
	for limit := int64(1); limit < full.Steps; limit++ {
		out := fusedBoth(t, fmt.Sprintf("limit=%d", limit), src, prog, vm.Config{Seed: 3, PreemptMean: 2, MaxSteps: limit})
		if !out.Failed || out.Report.Kind != vm.FaultHang || out.Steps != limit {
			t.Fatalf("step limit %d: want a hang after exactly that many steps, got %+v", limit, out)
		}
	}
}

// fusedBoth runs prog with every hook but OnStep on both engines and
// requires the same outcome and the same event stream.
func fusedBoth(t *testing.T, name string, src *ir.Program, prog *bytecode.Program, cfg vm.Config) *vm.Outcome {
	t.Helper()
	var want, got maskedTracker
	c := cfg
	c.Hooks = dataHooks(&want)
	ref := interp.Run(src, c)
	c.Hooks = dataHooks(&got)
	out, _ := prog.Run(c)
	outcomesEqual(t, name, cfg.Seed, ref, out)
	if d := firstDiff(want.delivered, got.delivered); d != "" {
		t.Fatalf("%s seed %d: %s", name, cfg.Seed, d)
	}
	return out
}

// TestFusedPairStepMask: a mask bit on the load of a fused pair, or a
// Traced bit the LocalAddr's own OnStep turns on, puts the OnStep hook
// between the two, so the load must be stepped alone and seen at its
// clock. The masked run on the machine must deliver exactly the events
// of the interpreter's unmasked run that the tracker counts relevant.
func TestFusedPairStepMask(t *testing.T) {
	src, prog, pairs := fusedProgram(t)
	for _, c := range []struct {
		name  string
		flags func(mask []uint8, pc int)
	}{
		// A stop flag alone never turns a thread on: only the bit itself
		// makes the load's step relevant.
		{"bit on the load", func(mask []uint8, pc int) { mask[pc+1] = 2 }},
		// Start at the LocalAddr, stop after the instruction after the
		// load: the load has no bit, and is relevant because the LocalAddr's
		// step turned the thread's Traced bit on.
		{"traced at the LocalAddr", func(mask []uint8, pc int) { mask[pc] |= 1; mask[pc+2] |= 2 }},
	} {
		mask := make([]uint8, len(src.Instrs))
		for _, pc := range pairs {
			c.flags(mask, pc)
		}
		oracle, machine := trackerWithMask(mask), trackerWithMask(mask)
		for seed := int64(0); seed < 16; seed++ {
			for mean := 1; mean <= 4; mean++ {
				oracle.reset()
				machine.reset()
				cfg := vm.Config{Seed: seed, PreemptMean: mean}
				cfg.Hooks = oracle.hooks(false)
				ref := interp.Run(src, cfg)
				cfg.Hooks = machine.hooks(true)
				out, _ := prog.Run(cfg)
				outcomesEqual(t, c.name, seed, ref, out)
				if len(oracle.relevant) == len(oracle.delivered) {
					t.Fatalf("%s seed %d: the mask filters nothing; the test needs untraced steps", c.name, seed)
				}
				if d := firstDiff(machine.delivered, oracle.relevant); d != "" {
					t.Fatalf("%s seed %d mean %d: masked machine vs the interpreter's relevant events: %s", c.name, seed, mean, d)
				}
			}
		}
	}
}
