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
//     (Finalize assigns IDs in (function, block, index) order, and every
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
//   - a dispatch per instruction: LocalAddr+Load retires in one, yet
//     fusion keeps one bytecode instruction per IR ID.
//
// Programs that the interpreter would fault at runtime with "bad
// opcode" / "bad binary op" / "bad builtin" compile to an opFail
// instruction carrying the identical message, so even the degenerate
// paths stay byte-identical.
package bytecode

import (
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/lang/sema"
	"repro/internal/lang/token"
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
	opFail      // compile-time-known runtime fault (bad opcode/binop/builtin)
	opLocalLoad // opLocalAddr whose result the next instruction, an opLoad, reads
)

// instr is one fixed-width bytecode instruction. Field meaning varies by
// opcode:
//
//	dst    destination register, -1 if none (as in ir.Instr)
//	a, b   operand refs: >= 0 frame register, < 0 constant consts[^ref]
//	p, q   opBr: then/else code index; opJmp: target; opCall: callee
//	       func index / argRefs offset; opSpawn: callee func index;
//	       opPrint: argRefs offset / arg count; opFail: failMsgs index
//	sz     opLoad/opStore: access size (1 or 8); opRet: 1 = has value
//	imm    opLocalAddr, opLocalLoad: slot; opFieldAddr: offset;
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
	numRegs int32
	nLocals int32
	params  int32
	name    string
	ir      *ir.Func // for OnSpawn hooks
}

// globalInit is one non-zero global initializer (index pre-multiplied
// into an absolute address, string initializers pre-resolved).
type globalInit struct {
	addr int64
	val  int64
}

// Program is a compiled program. It is immutable after Compile and safe
// for concurrent Run calls; per-run state lives in pooled Machines.
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

	pool sync.Pool // *Machine
}

// IR returns the source program.
func (p *Program) IR() *ir.Program { return p.ir }

// NumInstrs returns the flat code length (== len(ir.Program.Instrs)).
func (p *Program) NumInstrs() int { return len(p.code) }

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
		out.funcs = append(out.funcs, funcInfo{
			entry:   int32(f.Entry().Instrs[0].ID),
			numRegs: int32(f.NumRegs),
			nLocals: int32(len(f.Locals)),
			params:  int32(f.Params),
			name:    f.Name,
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
				out.code = append(out.code, c.emit(in))
			}
		}
	}
	// A local's address loaded from at once — the commonest pair the
	// programs retire — becomes one opLocalLoad; the opLoad stays in place
	// and runs alone wherever the pair cannot retire together.
	for pc := 0; pc+1 < len(out.code); pc++ {
		la, ld := &out.code[pc], &out.code[pc+1]
		if la.op == opLocalAddr && la.dst >= 0 && ld.op == opLoad && ld.a == la.dst {
			la.op = opLocalLoad
		}
	}
	out.zeroMask = make([]uint8, len(out.code))
	return out
}

// emit lowers one IR instruction; the result lands at code index in.ID.
func (c *compiler) emit(in *ir.Instr) instr {
	d := int32(in.Dst)
	switch in.Op {
	case ir.OpMov:
		return instr{op: opMov, dst: d, a: c.ref(in.A)}
	case ir.OpLocalAddr:
		return instr{op: opLocalAddr, dst: d, imm: int64(in.Slot)}
	case ir.OpGlobalAddr:
		return instr{op: opMov, dst: d, a: c.constRef(vm.GlobalsBase + int64(in.Global)*8)}
	case ir.OpStrAddr:
		return instr{op: opMov, dst: d, a: c.constRef(c.out.strAddrs[in.Str])}
	case ir.OpFieldAddr:
		return instr{op: opFieldAddr, dst: d, a: c.ref(in.A), imm: in.Offset}
	case ir.OpIndexAddr:
		return instr{op: opIndexAddr, dst: d, a: c.ref(in.A), b: c.ref(in.B), imm: in.ElemSz}
	case ir.OpLoad:
		return instr{op: opLoad, dst: d, a: c.ref(in.A), sz: uint8(in.Size)}
	case ir.OpStore:
		return instr{op: opStore, a: c.ref(in.A), b: c.ref(in.B), sz: uint8(in.Size)}
	case ir.OpBin:
		op, ok := binOps[in.BinOp]
		if !ok {
			return c.failInstr(fmt.Sprintf("bad binary op %s", in.BinOp))
		}
		return instr{op: op, dst: d, a: c.ref(in.A), b: c.ref(in.B)}
	case ir.OpNot:
		return instr{op: opNot, dst: d, a: c.ref(in.A)}
	case ir.OpNeg:
		return instr{op: opNeg, dst: d, a: c.ref(in.A)}
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
		return instr{op: opCall, dst: d, p: callee, q: off, imm: int64(len(in.Args))}
	case ir.OpCallB:
		return c.emitBuiltin(in, d)
	default:
		return c.failInstr(fmt.Sprintf("bad opcode %s", in.Op))
	}
}

func (c *compiler) emitBuiltin(in *ir.Instr, d int32) instr {
	arg := func(i int) int32 { return c.ref(in.Args[i]) }
	switch in.Builtin {
	case sema.BuiltinMalloc:
		return instr{op: opMalloc, dst: d, a: arg(0)}
	case sema.BuiltinFree:
		return instr{op: opFree, a: arg(0)}
	case sema.BuiltinSpawn:
		fn, ok := c.fnIdx[in.Args[0].Func]
		if !ok {
			panic(fmt.Sprintf("bytecode: spawn of unknown function %s", in.Args[0].Func))
		}
		return instr{op: opSpawn, dst: d, p: fn, a: arg(1)}
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
		return instr{op: opStrlen, dst: d, a: arg(0)}
	case sema.BuiltinInput:
		return instr{op: opInput, dst: d, a: arg(0)}
	case sema.BuiltinInputStr:
		return instr{op: opInputStr, dst: d, a: arg(0)}
	case sema.BuiltinYield:
		return instr{op: opYield}
	default:
		return c.failInstr(fmt.Sprintf("bad builtin %s", in.Callee))
	}
}
