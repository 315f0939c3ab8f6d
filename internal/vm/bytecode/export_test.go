package bytecode

import "repro/internal/vm"

// Mem exposes the machine's address space to the differential tests,
// which compare it with the interpreter's when a run ends.
func (m *Machine) Mem() *vm.Memory { return m.mem }
