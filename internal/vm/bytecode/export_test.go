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

// Owed reports the clock from which the run's lone thread owes its
// scheduler decisions (settle), or -1 once the run has spawned.
func (m *Machine) Owed() int64 {
	if len(m.threads) > 1 {
		return -1
	}
	return m.lone
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

// Skips counts the calls of pure functions the machine's last run took
// as recorded instead of executing them.
func (m *Machine) Skips() int { return m.skips }

// Dsts lists each instruction's destination register by code index.
func (p *Program) Dsts() []int {
	dsts := make([]int, len(p.code))
	for pc, in := range p.code {
		dsts[pc] = int(in.dst)
	}
	return dsts
}

// Reads lists the operand refs each instruction reads, by code index:
// a register where >= 0, a constant where < 0.
func (p *Program) Reads() [][]int32 {
	reads := make([][]int32, len(p.code))
	for pc, in := range p.code {
		switch in.op {
		case opLocalAddr, opJmp, opYield, opFail:
		case opRet:
			if in.sz == 1 {
				reads[pc] = []int32{in.a}
			}
		case opCall:
			reads[pc] = p.argRefs[in.q : in.q+int32(in.imm)]
		case opPrint:
			reads[pc] = p.argRefs[in.p : in.p+in.q]
		case opIndexAddr, opStore, opAdd, opSub, opMul, opDiv, opMod, opEq, opNe, opLt, opLe, opGt, opGe:
			reads[pc] = []int32{in.a, in.b}
		default:
			reads[pc] = []int32{in.a}
		}
	}
	return reads
}

// PureFuncs maps each pure function's name to its code range [entry, end).
func (p *Program) PureFuncs() map[string][2]int {
	pure := map[string][2]int{}
	for _, fi := range p.funcs {
		if fi.pure {
			pure[fi.ir.Name] = [2]int{int(fi.entry), int(fi.end)}
		}
	}
	return pure
}
