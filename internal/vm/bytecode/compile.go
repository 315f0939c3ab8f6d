// Package bytecode compiles finalized IR programs to a flat, fixed-width
// bytecode and executes it on a reusable register machine.
//
// The tree-walking interpreter in internal/vm/interp is the reference
// implementation: it is small, obviously correct, and every one of its
// observable behaviors — the RNG consumption order of the scheduler, the
// clock at which each hook fires, the bytes of every failure report — is
// a contract the rest of the pipeline (PT decoding, watchpoint
// collection, deterministic admission, checkpoint resume) depends on.
// This engine exists purely to make those same runs cheap: differential
// tests assert byte-identical outcomes on the full bug suite, and every
// production run executes here.
//
// What the compiler removes from the hot loop:
//
//   - *ir.Instr pointer chasing: code is one flat []instr array indexed
//     by program counter, and the pc of an instruction IS its ir.Instr.ID
//     (ir.Build assigns IDs in (function, block, index) order, and every
//     IR instruction lowers to exactly one bytecode instruction), so
//     jump targets, call entries and fall-throughs are plain int32
//     indices and failure reports need no reverse mapping.
//   - map lookups: callees and spawn targets are resolved to function
//     indices at compile time; FuncByName is never consulted at runtime.
//   - operand dispatch: an operand reference is an int32 that is either
//     a frame-register index (>= 0) or a constant-pool index (< 0,
//     decoded as consts[^ref]). ValConst, ValFuncRef, OpGlobalAddr and
//     OpStrAddr all collapse to constants because global and string-pool
//     addresses are compile-time constants of the address-space layout.
//   - generic switches: each binary operator and each builtin gets its
//     own opcode.
//   - the bodies of pure leaf calls: a function that touches only its own
//     frame runs once per (program, callee, arguments), and a later call
//     that nothing watches inside the callee takes the recorded return
//     value and frame bytes and banks the callee's steps as run-ahead
//     credit (leaf.go).
//
// Programs that the interpreter would fault at runtime with "bad
// opcode" / "bad binary op" / "bad builtin" compile to an opFail
// instruction carrying the identical message, so even the degenerate
// paths stay byte-identical.
package bytecode

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/lang/sema"
	"repro/internal/lang/token"
	"repro/internal/spare"
	"repro/internal/vm"
)

// opcode discriminates bytecode instructions.
type opcode uint8

const (
	opMov opcode = iota
	opLocalAddr
	opFieldAddr
	opIndexAddr
	opLoad
	opStore
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opNot
	opNeg
	opBr
	opJmp
	opRet
	opCall
	opMalloc
	opFree
	opSpawn
	opJoin
	opLock
	opUnlock
	opAssert
	opPrint
	opPrints
	opStrlen
	opInput
	opInputStr
	opYield
	opFail // compile-time-known runtime fault (bad opcode/binop/builtin)
)

// instr is one fixed-width bytecode instruction. Field meaning varies by
// opcode:
//
//	dst    destination register: ir.Instr's, or the function's sink
//	       register where the IR names none
//	a, b   operand refs: >= 0 frame register, < 0 constant consts[^ref]
//	p, q   opBr: then/else code index; opJmp: target; opCall: callee
//	       func index / argRefs offset; opSpawn: callee func index;
//	       opPrint: argRefs offset / arg count; opFail: failMsgs index
//	sz     opLoad/opStore: access size (1 or 8); opRet: 1 = has value
//	imm    opLocalAddr: slot; opFieldAddr: offset;
//	       opIndexAddr: elem size; opCall: arg count
type instr struct {
	op  opcode
	sz  uint8
	dst int32
	a   int32
	b   int32
	p   int32
	q   int32
	imm int64
}

// funcInfo is the compiled view of one ir.Func.
type funcInfo struct {
	entry   int32 // code index of the first instruction
	end     int32 // code index past the last one
	pure    bool  // touches only its own frame (see isPure)
	numRegs int32 // the IR's registers, then the sink
	nLocals int32
	params  int32
	ir      *ir.Func // its name, and what OnSpawn hooks see
}

// globalInit is one non-zero global initializer (index pre-multiplied
// into an absolute address, string initializers pre-resolved).
type globalInit struct {
	addr int64
	val  int64
}

// Program is a compiled program. It is safe for concurrent Run calls:
// per-run state lives in spare Machines, and the one part that changes
// after Compile, the record of pure calls, is guarded and only grows.
type Program struct {
	ir       *ir.Program
	code     []instr
	consts   []int64
	argRefs  []int32 // shared operand pool for opCall/opPrint argument lists
	funcs    []funcInfo
	mainIdx  int32
	strBlob  []byte  // concatenated NUL-terminated program strings
	strAddrs []int64 // string pool index -> address (layout constants)
	inits    []globalInit
	failMsgs []string
	nGlobals int
	zeroMask []uint8 // all-zero Hooks.StepMask, for runs whose consumer set none
	leaves   leaves  // what calls of pure functions did (see leaf.go)
}

// NumInstrs returns the flat code length (== len(ir.Program.Instrs)).
func (p *Program) NumInstrs() int { return len(p.code) }

// machines holds the machines of finished runs for the next run of any
// program. Until reset sizes it for a program, a machine is scratch no
// program owns — threads, registers, scheduler constants, its address
// space — so one list serves every program, and it never holds more
// machines than runs were in flight at once: a run, plus a second
// machine while that run re-runs part of itself silently (rerun).
var machines spare.List[*Machine]

// acquire returns a machine for a run of p, and whether it ran before.
func acquire(p *Program) (*Machine, bool) {
	m, ok := machines.Get()
	if !ok {
		m = new(Machine)
	}
	m.prog = p
	return m, ok
}

// release hands the machine, address space included, on to the next
// run of any program; it lets go of the program and the hooks it ran.
func (m *Machine) release() {
	m.prog, m.cfg = nil, vm.Config{}
	machines.Put(m)
}

// Run executes one run on a spare machine and reports whether the
// machine state was reused from a previous run (the vm.state_reuse
// telemetry signal).
func (p *Program) Run(cfg vm.Config) (*vm.Outcome, bool) {
	m, reused := acquire(p)
	out := m.Run(cfg)
	m.release()
	return out, reused
}

type compiler struct {
	src      *ir.Program
	out      *Program
	constIdx map[int64]int32
	fnIdx    map[string]int32
}

// constRef interns v in the constant pool and returns its operand ref.
func (c *compiler) constRef(v int64) int32 {
	if ref, ok := c.constIdx[v]; ok {
		return ref
	}
	idx := int32(len(c.out.consts))
	c.out.consts = append(c.out.consts, v)
	ref := ^idx // -(idx+1)
	c.constIdx[v] = ref
	return ref
}

// ref lowers an operand to a register or constant reference. ValNil
// lowers to constant 0, matching the interpreter's eval default.
func (c *compiler) ref(v ir.Value) int32 {
	switch v.Kind {
	case ir.ValReg:
		return int32(v.Reg)
	case ir.ValConst:
		return c.constRef(v.Int)
	case ir.ValFuncRef:
		return c.constRef(int64(c.src.FuncByName[v.Func].ID))
	default:
		return c.constRef(0)
	}
}

// failInstr emits the fault the interpreter would raise at runtime for
// a malformed instruction, preserving the exact message bytes.
func (c *compiler) failInstr(msg string) instr {
	idx := int32(len(c.out.failMsgs))
	c.out.failMsgs = append(c.out.failMsgs, msg)
	return instr{op: opFail, p: idx}
}

// entryOf returns the code index of a block's first instruction.
func entryOf(b *ir.Block) int32 {
	if len(b.Instrs) == 0 {
		panic(fmt.Sprintf("bytecode: branch to empty block bb%d in %s", b.ID, b.Fn.Name))
	}
	return int32(b.Instrs[0].ID)
}

var binOps = map[token.Kind]opcode{
	token.PLUS:    opAdd,
	token.MINUS:   opSub,
	token.STAR:    opMul,
	token.SLASH:   opDiv,
	token.PERCENT: opMod,
	token.EQ:      opEq,
	token.NE:      opNe,
	token.LT:      opLt,
	token.LE:      opLe,
	token.GT:      opGt,
	token.GE:      opGe,
}

// Compile lowers a finalized program. It panics on structurally invalid
// input (unfinalized program, block without terminator, missing main) —
// the same classes of program the interpreter cannot run either.
func Compile(p *ir.Program) *Program {
	if p.FuncByName["main"] == nil {
		panic("bytecode: program has no main")
	}
	c := &compiler{
		src:      p,
		out:      &Program{ir: p, nGlobals: len(p.Globals)},
		constIdx: make(map[int64]int32),
		fnIdx:    make(map[string]int32, len(p.Funcs)),
	}
	out := c.out
	out.code = make([]instr, 0, len(p.Instrs))

	// String-pool layout is deterministic (AddString order == Strings
	// order), so every program string's address is a compile-time
	// constant and the whole pool resets with a single blob copy.
	for _, s := range p.Strings {
		out.strAddrs = append(out.strAddrs, vm.StringsBase+int64(len(out.strBlob)))
		out.strBlob = append(out.strBlob, s...)
		out.strBlob = append(out.strBlob, 0)
	}

	for _, g := range p.Globals {
		val := g.Init
		if g.InitStr >= 0 {
			val = out.strAddrs[g.InitStr]
		}
		if val != 0 {
			out.inits = append(out.inits, globalInit{
				addr: vm.GlobalsBase + int64(g.Index)*8, val: val,
			})
		}
	}

	for i, f := range p.Funcs {
		if len(f.Blocks) == 0 || len(f.Entry().Instrs) == 0 {
			panic(fmt.Sprintf("bytecode: function %s has no entry code", f.Name))
		}
		end := f.Entry().Instrs[0].ID
		for _, b := range f.Blocks {
			end += len(b.Instrs)
		}
		out.funcs = append(out.funcs, funcInfo{
			entry:   int32(f.Entry().Instrs[0].ID),
			end:     int32(end),
			numRegs: int32(f.NumRegs) + 1,
			nLocals: int32(f.Slots),
			params:  int32(f.Params),
			ir:      f,
		})
		c.fnIdx[f.Name] = int32(i)
	}
	out.mainIdx = c.fnIdx["main"]

	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Terminator() == nil && len(b.Instrs) > 0 {
				panic(fmt.Sprintf("bytecode: block bb%d in %s lacks a terminator", b.ID, f.Name))
			}
			for _, in := range b.Instrs {
				if in.ID != len(out.code) {
					panic("bytecode: program not finalized (instruction IDs not dense)")
				}
				out.code = append(out.code, c.emit(in, int32(f.NumRegs)))
			}
		}
	}
	for i := range out.funcs {
		fi := &out.funcs[i]
		fi.pure = isPure(out.code[fi.entry:fi.end], fi.numRegs, fi.nLocals)
	}
	out.zeroMask = make([]uint8, len(out.code))
	return out
}

// emit lowers one IR instruction; the result lands at code index in.ID
// and writes the register in.Dst names or, where that is -1, sink: a
// register of its own that nothing reads, so every write is unguarded.
func (c *compiler) emit(in *ir.Instr, sink int32) instr {
	bi := c.lower(in)
	bi.dst = int32(in.Dst)
	if in.Dst < 0 {
		bi.dst = sink
	}
	return bi
}

func (c *compiler) lower(in *ir.Instr) instr {
	switch in.Op {
	case ir.OpMov:
		return instr{op: opMov, a: c.ref(in.A)}
	case ir.OpLocalAddr:
		return instr{op: opLocalAddr, imm: int64(in.Slot)}
	case ir.OpGlobalAddr:
		return instr{op: opMov, a: c.constRef(vm.GlobalsBase + int64(in.Global)*8)}
	case ir.OpStrAddr:
		return instr{op: opMov, a: c.constRef(c.out.strAddrs[in.Str])}
	case ir.OpFieldAddr:
		return instr{op: opFieldAddr, a: c.ref(in.A), imm: in.Offset}
	case ir.OpIndexAddr:
		return instr{op: opIndexAddr, a: c.ref(in.A), b: c.ref(in.B), imm: in.ElemSz}
	case ir.OpLoad:
		return instr{op: opLoad, a: c.ref(in.A), sz: uint8(in.Size)}
	case ir.OpStore:
		return instr{op: opStore, a: c.ref(in.A), b: c.ref(in.B), sz: uint8(in.Size)}
	case ir.OpBin:
		op, ok := binOps[in.BinOp]
		if !ok {
			return c.failInstr(fmt.Sprintf("bad binary op %s", in.BinOp))
		}
		return instr{op: op, a: c.ref(in.A), b: c.ref(in.B)}
	case ir.OpNot:
		return instr{op: opNot, a: c.ref(in.A)}
	case ir.OpNeg:
		return instr{op: opNeg, a: c.ref(in.A)}
	case ir.OpBr:
		return instr{op: opBr, a: c.ref(in.A), p: entryOf(in.Then), q: entryOf(in.Else)}
	case ir.OpJmp:
		return instr{op: opJmp, p: entryOf(in.Then)}
	case ir.OpRet:
		bi := instr{op: opRet}
		if !in.A.IsNil() {
			bi.sz = 1
			bi.a = c.ref(in.A)
		}
		return bi
	case ir.OpCall:
		callee, ok := c.fnIdx[in.Callee]
		if !ok {
			panic(fmt.Sprintf("bytecode: call to unknown function %s", in.Callee))
		}
		off := int32(len(c.out.argRefs))
		for _, a := range in.Args {
			c.out.argRefs = append(c.out.argRefs, c.ref(a))
		}
		return instr{op: opCall, p: callee, q: off, imm: int64(len(in.Args))}
	case ir.OpCallB:
		return c.emitBuiltin(in)
	default:
		return c.failInstr(fmt.Sprintf("bad opcode %s", in.Op))
	}
}

func (c *compiler) emitBuiltin(in *ir.Instr) instr {
	arg := func(i int) int32 { return c.ref(in.Args[i]) }
	switch in.Builtin {
	case sema.BuiltinMalloc:
		return instr{op: opMalloc, a: arg(0)}
	case sema.BuiltinFree:
		return instr{op: opFree, a: arg(0)}
	case sema.BuiltinSpawn:
		fn, ok := c.fnIdx[in.Args[0].Func]
		if !ok {
			panic(fmt.Sprintf("bytecode: spawn of unknown function %s", in.Args[0].Func))
		}
		return instr{op: opSpawn, p: fn, a: arg(1)}
	case sema.BuiltinJoin:
		return instr{op: opJoin, a: arg(0)}
	case sema.BuiltinLock:
		return instr{op: opLock, a: arg(0)}
	case sema.BuiltinUnlock:
		return instr{op: opUnlock, a: arg(0)}
	case sema.BuiltinAssert:
		return instr{op: opAssert, a: arg(0)}
	case sema.BuiltinPrint:
		off := int32(len(c.out.argRefs))
		for _, a := range in.Args {
			c.out.argRefs = append(c.out.argRefs, c.ref(a))
		}
		return instr{op: opPrint, p: off, q: int32(len(in.Args))}
	case sema.BuiltinPrints:
		return instr{op: opPrints, a: arg(0)}
	case sema.BuiltinStrlen:
		return instr{op: opStrlen, a: arg(0)}
	case sema.BuiltinInput:
		return instr{op: opInput, a: arg(0)}
	case sema.BuiltinInputStr:
		return instr{op: opInputStr, a: arg(0)}
	case sema.BuiltinYield:
		return instr{op: opYield}
	default:
		return c.failInstr(fmt.Sprintf("bad builtin %s", in.Callee))
	}
}
