package bytecode

import "repro/internal/vm"

// Mem exposes the machine's address space to the differential tests,
// which compare it with the interpreter's when a run ends.
func (m *Machine) Mem() *vm.Memory { return m.mem }

// Speculating reports whether the grant in effect holds a decision a cut
// may have to drop: one merged after the first, or the next one drawn.
func (m *Machine) Speculating() bool { return m.grant.n > 1 || m.grant.drawn }

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
