package bytecode

import "repro/internal/vm"

// Mem exposes the machine's address space to the differential tests,
// which compare it with the interpreter's when a run ends. It is exact
// for the globals, the heap and the stack of every thread without
// credit; a stack whose thread still holds credit is ahead of the clock.
func (m *Machine) Mem() *vm.Memory { return m.mem }

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
