package bytecode

import (
	"repro/internal/ir"
	"repro/internal/vm"
)

// Mem exposes the machine's address space to the differential tests,
// which compare it with the interpreter's when a run ends. It is exact
// for the globals, the heap and the stack of every thread without
// credit; a stack whose thread still holds credit is ahead of the clock.
func (m *Machine) Mem() *vm.Memory { return m.mem }

// IR returns the source program, which the differential tests hand to
// the interpreter.
func (p *Program) IR() *ir.Program { return p.ir }

// Credit reports how many steps thread tid has run ahead of the clock.
func (m *Machine) Credit(tid int) int64 { return m.threads[tid].credit }

// AheadMax is the cap on one thread's credit.
const AheadMax = aheadMax

// FusedPairs lists the code indices — IR IDs — of the LocalAddr+Load
// pairs that can retire in one dispatch.
func (p *Program) FusedPairs() []int {
	var pcs []int
	for pc, in := range p.code {
		if in.op == opLocalLoad {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// SpareMachines counts the machines on the spare list by draining it
// and putting them back in the same order.
func SpareMachines() int {
	var held []*Machine
	for {
		m, ok := machines.Get()
		if !ok {
			break
		}
		held = append(held, m)
	}
	for i := len(held) - 1; i >= 0; i-- {
		machines.Put(held[i])
	}
	return len(held)
}
