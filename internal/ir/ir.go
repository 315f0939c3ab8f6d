// Package ir defines the intermediate representation that the
// failure-sketching pipeline analyzes and executes.
//
// The IR is deliberately shaped like LLVM IR before mem2reg promotion:
// every named variable (global or local) lives in memory and is accessed
// through explicit Load/Store instructions, while temporaries live in
// per-frame virtual registers. That shape is what makes the paper's
// algorithms transcribe directly:
//
//   - the backward slicer (Algorithm 1) walks operands of loads, stores,
//     calls and branches;
//   - Intel PT start/stop placement reasons about basic blocks,
//     predecessors, dominators and postdominators;
//   - hardware watchpoints watch the addresses computed by FieldAddr /
//     IndexAddr / GlobalAddr instructions.
//
// Each instruction records the source position of the statement it was
// generated from; failure sketches are rendered by mapping slice
// instructions back to source lines.
//
// Lowering reads names only through sema.Info: the checker binds each
// identifier, numbers the frame slots and folds global initializers, so
// the builder keeps no scope of its own.
package ir

import (
	"fmt"
	"strings"

	"repro/internal/lang/sema"
	"repro/internal/lang/token"
)

// Op enumerates instruction opcodes.
type Op int

// Instruction opcodes.
const (
	OpMov        Op = iota // Dst = A
	OpLocalAddr            // Dst = &frame.slots[Slot]
	OpGlobalAddr           // Dst = &globals[Global]
	OpStrAddr              // Dst = &stringpool[Str]
	OpLoad                 // Dst = *(A) ; Size bytes
	OpStore                // *(A) = B  ; Size bytes
	OpFieldAddr            // Dst = A + Offset (struct field address)
	OpIndexAddr            // Dst = A + B*ElemSize (array element address)
	OpBin                  // Dst = A <BinOp> B
	OpNot                  // Dst = !A
	OpNeg                  // Dst = -A
	OpCall                 // Dst = Callee(Args...) ; user function
	OpCallB                // Dst = builtin(Args...)
	OpBr                   // if A != 0 goto Then else goto Else
	OpJmp                  // goto Then
	OpRet                  // return A (A may be Nil for void)
)

var opNames = [...]string{
	OpMov: "mov", OpLocalAddr: "localaddr", OpGlobalAddr: "globaladdr",
	OpStrAddr: "straddr", OpLoad: "load", OpStore: "store",
	OpFieldAddr: "fieldaddr", OpIndexAddr: "indexaddr", OpBin: "bin",
	OpNot: "not", OpNeg: "neg", OpCall: "call", OpCallB: "callb",
	OpBr: "br", OpJmp: "jmp", OpRet: "ret",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ValKind discriminates operand kinds.
type ValKind int

// Operand kinds.
const (
	ValNil     ValKind = iota // absent operand
	ValConst                  // integer constant
	ValReg                    // virtual register (per-frame)
	ValFuncRef                // function reference (spawn target)
)

// Value is an instruction operand.
type Value struct {
	Kind ValKind
	Int  int64  // for ValConst
	Reg  int    // for ValReg
	Func string // for ValFuncRef
}

// Nil is the absent operand.
var Nil = Value{Kind: ValNil}

// constInt returns a constant operand.
func constInt(v int64) Value { return Value{Kind: ValConst, Int: v} }

// reg returns a register operand.
func reg(r int) Value { return Value{Kind: ValReg, Reg: r} }

// funcRef returns a function-reference operand.
func funcRef(name string) Value { return Value{Kind: ValFuncRef, Func: name} }

// IsNil reports whether the operand is absent.
func (v Value) IsNil() bool { return v.Kind == ValNil }

// String renders the operand.
func (v Value) String() string {
	switch v.Kind {
	case ValNil:
		return "_"
	case ValConst:
		return fmt.Sprintf("%d", v.Int)
	case ValReg:
		return fmt.Sprintf("r%d", v.Reg)
	case ValFuncRef:
		return "@" + v.Func
	default:
		return "?"
	}
}

// Instr is a single IR instruction.
//
// ID is unique across the whole program and is assigned by
// Program.finalize; IDs increase in (function, block, index) order, so
// they provide a stable total order over the program text — the order the
// flow-sensitive slicer walks backward through.
type Instr struct {
	ID  int
	Op  Op
	Dst int // destination register, -1 if none

	A, B Value

	Slot    int        // OpLocalAddr: frame slot index
	Global  int        // OpGlobalAddr: global index
	Str     int        // OpStrAddr: string pool index
	Size    int64      // OpLoad/OpStore: access size in bytes (8 or 1)
	Offset  int64      // OpFieldAddr: byte offset
	ElemSz  int64      // OpIndexAddr: element size in bytes
	BinOp   token.Kind // OpBin
	Callee  string     // OpCall / OpCallB
	Builtin sema.Builtin
	Args    []Value // OpCall / OpCallB

	Then *Block // OpBr taken target, OpJmp target
	Else *Block // OpBr fall-through target

	Pos token.Position // source statement this instruction came from

	Blk *Block // owning block (set by finalize)
	Idx int    // index within owning block (set by finalize)
	// NextCtl is the ID of the first br, jmp, call or ret at or after
	// this instruction in its block (set by finalize): a PT decoder
	// steps from here to there in one move, since nothing in between
	// transfers control or emits a packet.
	NextCtl int
}

// isTerminator reports whether the instruction ends a basic block.
func (in *Instr) isTerminator() bool {
	return in.Op == OpBr || in.Op == OpJmp || in.Op == OpRet
}

// IsMemAccess reports whether the instruction reads or writes memory
// through a computed address (the accesses data-flow tracking cares about).
func (in *Instr) IsMemAccess() bool { return in.Op == OpLoad || in.Op == OpStore }

// String renders the instruction.
func (in *Instr) String() string {
	dst := ""
	if in.Dst >= 0 {
		dst = fmt.Sprintf("r%d = ", in.Dst)
	}
	switch in.Op {
	case OpMov:
		return fmt.Sprintf("%smov %s", dst, in.A)
	case OpLocalAddr:
		return fmt.Sprintf("%slocaladdr slot%d", dst, in.Slot)
	case OpGlobalAddr:
		return fmt.Sprintf("%sglobaladdr g%d", dst, in.Global)
	case OpStrAddr:
		return fmt.Sprintf("%sstraddr s%d", dst, in.Str)
	case OpLoad:
		return fmt.Sprintf("%sload [%s] size=%d", dst, in.A, in.Size)
	case OpStore:
		return fmt.Sprintf("store [%s] = %s size=%d", in.A, in.B, in.Size)
	case OpFieldAddr:
		return fmt.Sprintf("%sfieldaddr %s + %d", dst, in.A, in.Offset)
	case OpIndexAddr:
		return fmt.Sprintf("%sindexaddr %s + %s*%d", dst, in.A, in.B, in.ElemSz)
	case OpBin:
		return fmt.Sprintf("%s%s %s, %s", dst, in.BinOp, in.A, in.B)
	case OpNot:
		return fmt.Sprintf("%snot %s", dst, in.A)
	case OpNeg:
		return fmt.Sprintf("%sneg %s", dst, in.A)
	case OpCall, OpCallB:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = a.String()
		}
		return fmt.Sprintf("%s%s %s(%s)", dst, in.Op, in.Callee, strings.Join(args, ", "))
	case OpBr:
		return fmt.Sprintf("br %s, bb%d, bb%d", in.A, in.Then.ID, in.Else.ID)
	case OpJmp:
		return fmt.Sprintf("jmp bb%d", in.Then.ID)
	case OpRet:
		if in.A.IsNil() {
			return "ret"
		}
		return fmt.Sprintf("ret %s", in.A)
	default:
		return fmt.Sprintf("?%s", in.Op)
	}
}

// Block is a basic block: a maximal straight-line instruction sequence
// ending in a terminator.
type Block struct {
	ID     int // index within the function
	Fn     *Func
	Instrs []*Instr
	Preds  []*Block // filled by finalize
}

// Terminator returns the block's terminating instruction (nil while the
// function is still under construction).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.isTerminator() {
		return nil
	}
	return t
}

// Succs returns the block's successor blocks in (taken, fallthrough) order.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr:
		return []*Block{t.Then, t.Else}
	case OpJmp:
		return []*Block{t.Then}
	default:
		return nil
	}
}

// Func is a function in IR form.
type Func struct {
	Name    string
	ID      int
	Params  int // the first Params slots hold the arguments
	Slots   int // frame slots: parameters, then locals
	Blocks  []*Block
	NumRegs int
	Ret     *sema.Type
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// newBlock appends a fresh empty block to the function.
func (f *Func) newBlock() *Block {
	b := &Block{ID: len(f.Blocks), Fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Global is a global variable.
type Global struct {
	Name  string
	Index int
	Type  *sema.Type
	Init  int64 // initial value (0 for pointers initialized to null)
	// InitStr >= 0 means the global is initialized to the address of
	// string-pool entry InitStr.
	InitStr int
}

// Program is a whole MiniC program in IR form, plus the metadata the
// analyses and the sketch renderer need.
type Program struct {
	Name       string
	Funcs      []*Func
	FuncByName map[string]*Func
	Globals    []*Global
	Strings    []string
	Structs    map[string]*sema.StructInfo

	Source      string
	SourceLines []string

	// Instrs is the program-wide instruction table indexed by Instr.ID.
	Instrs []*Instr

	// SpawnTargets maps each spawn call instruction ID to the statically
	// known thread start routine (the TICFG thread-creation edges).
	SpawnTargets map[int]string
}

// finalize assigns program-wide instruction IDs, block back-references,
// each instruction's next control transfer and predecessor lists. It must
// be called once after construction and before any analysis. A block's
// instructions get consecutive IDs.
func (p *Program) finalize() {
	p.Instrs = p.Instrs[:0]
	id := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			b.Preds = nil
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				in.ID = id
				in.Blk = b
				in.Idx = i
				p.Instrs = append(p.Instrs, in)
				id++
			}
			next := -1
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				if in.Op == OpBr || in.Op == OpJmp || in.Op == OpCall || in.Op == OpRet {
					next = in.ID
				}
				in.NextCtl = next
			}
		}
		for _, b := range f.Blocks {
			for _, s := range b.Succs() {
				s.Preds = append(s.Preds, b)
			}
		}
	}
}

// SourceLine returns the trimmed source text of a 1-based line number.
func (p *Program) SourceLine(n int) string {
	if n < 1 || n > len(p.SourceLines) {
		return ""
	}
	return strings.TrimSpace(p.SourceLines[n-1])
}

// String renders the whole program's IR as text.
func (p *Program) String() string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global g%d %s : %s = %d\n", g.Index, g.Name, g.Type, g.Init)
	}
	for i, s := range p.Strings {
		fmt.Fprintf(&b, "string s%d = %q\n", i, s)
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&b, "\nfunc %s (params=%d, slots=%d, regs=%d):\n", f.Name, f.Params, f.Slots, f.NumRegs)
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "bb%d:\n", blk.ID)
			for _, in := range blk.Instrs {
				fmt.Fprintf(&b, "  %%%-4d %-40s ; %s\n", in.ID, in.String(), in.Pos)
			}
		}
	}
	return b.String()
}
