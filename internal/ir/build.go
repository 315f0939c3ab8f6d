package ir

import (
	"fmt"

	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lang/sema"
	"repro/internal/lang/token"
)

// Build lowers a type-checked file to IR. The returned program is
// finalized (instruction IDs and predecessor lists are valid).
func Build(info *sema.Info, source string) (*Program, error) {
	b := &builder{
		info: info,
		prog: &Program{
			Name:         info.File.Name,
			FuncByName:   make(map[string]*Func),
			Structs:      info.Structs,
			Source:       source,
			SourceLines:  splitLines(source),
			SpawnTargets: make(map[int]string),
		},
		strIdx: make(map[string]int),
	}
	b.buildGlobals()
	for _, fd := range info.File.Funcs {
		fi := info.Funcs[fd.Name]
		f := &Func{Name: fd.Name, ID: len(b.prog.Funcs), Params: len(fd.Params), Slots: fi.Slots, Ret: fi.Sig.Ret}
		b.prog.Funcs = append(b.prog.Funcs, f)
		b.prog.FuncByName[fd.Name] = f
	}
	for _, fd := range info.File.Funcs {
		if err := b.buildFunc(fd); err != nil {
			return nil, err
		}
	}
	b.prog.finalize()
	for _, in := range b.pendingSpawns {
		b.prog.SpawnTargets[in.ID] = in.Args[0].Func
	}
	return b.prog, nil
}

// Compile parses, checks and lowers MiniC source in one step.
func Compile(filename, source string) (*Program, error) {
	f, err := parser.ParseFile(filename, source)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(f)
	if err != nil {
		return nil, err
	}
	return Build(info, source)
}

// MustCompile compiles source and panics on error; for the embedded bug
// suite and tests.
func MustCompile(filename, source string) *Program {
	p, err := Compile(filename, source)
	if err != nil {
		panic(fmt.Sprintf("compile %s: %v", filename, err))
	}
	return p
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	lines = append(lines, s[start:])
	return lines
}

type loopCtx struct {
	brk, cont *Block
}

type builder struct {
	info   *sema.Info
	prog   *Program
	strIdx map[string]int

	fn    *Func
	cur   *Block
	loops []loopCtx

	// pendingSpawns collects spawn call instructions; their program-wide
	// IDs are only known after finalize, at which point Build records them
	// in Program.SpawnTargets.
	pendingSpawns []*Instr
}

// buildGlobals lays out the globals. A file that checked declares no
// global twice, so info.Globals[i] is File.Globals[i].
func (b *builder) buildGlobals() {
	for i, gd := range b.info.File.Globals {
		gi := b.info.Globals[i]
		g := &Global{Name: gi.Name, Index: gi.Slot, Type: gi.Type, Init: b.info.ConstValues[gd.Init], InitStr: -1}
		if s, ok := gd.Init.(*ast.StringLit); ok {
			g.InitStr = b.internString(s.Value)
		}
		b.prog.Globals = append(b.prog.Globals, g)
	}
}

func (b *builder) internString(s string) int {
	if i, ok := b.strIdx[s]; ok {
		return i
	}
	i := len(b.prog.Strings)
	b.prog.Strings = append(b.prog.Strings, s)
	b.strIdx[s] = i
	return i
}

func (b *builder) newReg() int {
	r := b.fn.NumRegs
	b.fn.NumRegs++
	return r
}

func (b *builder) emit(in *Instr) *Instr {
	if t := b.cur.Terminator(); t != nil {
		// Dead code after return/break/continue: emit into a fresh
		// unreachable block to keep every block well-formed.
		b.cur = b.fn.newBlock()
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in
}

func (b *builder) buildFunc(fd *ast.FuncDecl) error {
	b.fn = b.prog.FuncByName[fd.Name]
	b.cur = b.fn.newBlock()
	b.loops = nil
	if err := b.stmt(fd.Body); err != nil {
		return err
	}
	if b.cur.Terminator() == nil {
		pos := fd.Pos()
		if b.fn.Ret.Kind == sema.KindVoid {
			b.emit(&Instr{Op: OpRet, Dst: -1, A: Nil, Pos: pos})
		} else {
			b.emit(&Instr{Op: OpRet, Dst: -1, A: constInt(0), Pos: pos})
		}
	}
	return nil
}

// ---------------------------------------------------------------- stmts

func (b *builder) stmt(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			if err := b.stmt(st); err != nil {
				return err
			}
		}
		return nil
	case *ast.DeclStmt:
		// The slot is zeroed on function entry; only an initializer
		// stores.
		if s.Init == nil {
			return nil
		}
		init, err := b.expr(s.Init)
		if err != nil {
			return err
		}
		addr := b.newReg()
		b.emit(&Instr{Op: OpLocalAddr, Dst: addr, Slot: b.info.Decls[s].Slot, Pos: s.Pos()})
		b.emit(&Instr{Op: OpStore, Dst: -1, A: reg(addr), B: init, Size: sema.WordSize, Pos: s.Pos()})
		return nil
	case *ast.ExprStmt:
		_, err := b.expr(s.X)
		return err
	case *ast.AssignStmt:
		addr, size, err := b.addrOf(s.LHS)
		if err != nil {
			return err
		}
		v, err := b.expr(s.RHS)
		if err != nil {
			return err
		}
		b.emit(&Instr{Op: OpStore, Dst: -1, A: addr, B: v, Size: size, Pos: s.Pos()})
		return nil
	case *ast.IfStmt:
		cond, err := b.expr(s.Cond)
		if err != nil {
			return err
		}
		thenBlk := b.fn.newBlock()
		endBlk := b.fn.newBlock()
		elseBlk := endBlk
		if s.Else != nil {
			elseBlk = b.fn.newBlock()
		}
		b.emit(&Instr{Op: OpBr, Dst: -1, A: cond, Then: thenBlk, Else: elseBlk, Pos: s.Cond.Pos()})
		b.cur = thenBlk
		if err := b.stmt(s.Then); err != nil {
			return err
		}
		if b.cur.Terminator() == nil {
			b.emit(&Instr{Op: OpJmp, Dst: -1, Then: endBlk, Pos: s.Pos()})
		}
		if s.Else != nil {
			b.cur = elseBlk
			if err := b.stmt(s.Else); err != nil {
				return err
			}
			if b.cur.Terminator() == nil {
				b.emit(&Instr{Op: OpJmp, Dst: -1, Then: endBlk, Pos: s.Pos()})
			}
		}
		b.cur = endBlk
		return nil
	case *ast.WhileStmt:
		condBlk := b.fn.newBlock()
		b.emit(&Instr{Op: OpJmp, Dst: -1, Then: condBlk, Pos: s.Pos()})
		b.cur = condBlk
		cond, err := b.expr(s.Cond)
		if err != nil {
			return err
		}
		bodyBlk := b.fn.newBlock()
		endBlk := b.fn.newBlock()
		b.emit(&Instr{Op: OpBr, Dst: -1, A: cond, Then: bodyBlk, Else: endBlk, Pos: s.Cond.Pos()})
		b.cur = bodyBlk
		b.loops = append(b.loops, loopCtx{brk: endBlk, cont: condBlk})
		if err := b.stmt(s.Body); err != nil {
			return err
		}
		b.loops = b.loops[:len(b.loops)-1]
		if b.cur.Terminator() == nil {
			b.emit(&Instr{Op: OpJmp, Dst: -1, Then: condBlk, Pos: s.Pos()})
		}
		b.cur = endBlk
		return nil
	case *ast.ForStmt:
		if s.Init != nil {
			if err := b.stmt(s.Init); err != nil {
				return err
			}
		}
		condBlk := b.fn.newBlock()
		b.emit(&Instr{Op: OpJmp, Dst: -1, Then: condBlk, Pos: s.Pos()})
		b.cur = condBlk
		bodyBlk := b.fn.newBlock()
		endBlk := b.fn.newBlock()
		if s.Cond != nil {
			cond, err := b.expr(s.Cond)
			if err != nil {
				return err
			}
			b.emit(&Instr{Op: OpBr, Dst: -1, A: cond, Then: bodyBlk, Else: endBlk, Pos: s.Cond.Pos()})
		} else {
			b.emit(&Instr{Op: OpJmp, Dst: -1, Then: bodyBlk, Pos: s.Pos()})
		}
		contBlk := condBlk
		var postBlk *Block
		if s.Post != nil {
			postBlk = b.fn.newBlock()
			contBlk = postBlk
		}
		b.cur = bodyBlk
		b.loops = append(b.loops, loopCtx{brk: endBlk, cont: contBlk})
		if err := b.stmt(s.Body); err != nil {
			return err
		}
		b.loops = b.loops[:len(b.loops)-1]
		if b.cur.Terminator() == nil {
			b.emit(&Instr{Op: OpJmp, Dst: -1, Then: contBlk, Pos: s.Pos()})
		}
		if s.Post != nil {
			b.cur = postBlk
			if err := b.stmt(s.Post); err != nil {
				return err
			}
			if b.cur.Terminator() == nil {
				b.emit(&Instr{Op: OpJmp, Dst: -1, Then: condBlk, Pos: s.Pos()})
			}
		}
		b.cur = endBlk
		return nil
	case *ast.ReturnStmt:
		if s.X == nil {
			b.emit(&Instr{Op: OpRet, Dst: -1, A: Nil, Pos: s.Pos()})
			return nil
		}
		v, err := b.expr(s.X)
		if err != nil {
			return err
		}
		b.emit(&Instr{Op: OpRet, Dst: -1, A: v, Pos: s.Pos()})
		return nil
	case *ast.BreakStmt:
		b.emit(&Instr{Op: OpJmp, Dst: -1, Then: b.loops[len(b.loops)-1].brk, Pos: s.Pos()})
		return nil
	case *ast.ContinueStmt:
		b.emit(&Instr{Op: OpJmp, Dst: -1, Then: b.loops[len(b.loops)-1].cont, Pos: s.Pos()})
		return nil
	default:
		return fmt.Errorf("%s: unhandled statement %T", s.Pos(), s)
	}
}

// ---------------------------------------------------------------- exprs

// expr lowers an expression and returns the operand holding its value.
func (b *builder) expr(e ast.Expr) (Value, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return constInt(e.Value), nil
	case *ast.NullLit:
		return constInt(0), nil
	case *ast.StringLit:
		idx := b.internString(e.Value)
		dst := b.newReg()
		b.emit(&Instr{Op: OpStrAddr, Dst: dst, Str: idx, Pos: e.Pos()})
		return reg(dst), nil
	case *ast.Ident:
		addr, _, err := b.addrOf(e)
		if err != nil {
			return Nil, err
		}
		dst := b.newReg()
		b.emit(&Instr{Op: OpLoad, Dst: dst, A: addr, Size: sema.WordSize, Pos: e.Pos()})
		return reg(dst), nil
	case *ast.UnaryExpr:
		return b.unary(e)
	case *ast.BinaryExpr:
		return b.binary(e)
	case *ast.CallExpr:
		return b.call(e)
	case *ast.IndexExpr, *ast.FieldExpr:
		addr, size, err := b.addrOf(e)
		if err != nil {
			return Nil, err
		}
		dst := b.newReg()
		b.emit(&Instr{Op: OpLoad, Dst: dst, A: addr, Size: size, Pos: e.Pos()})
		return reg(dst), nil
	default:
		return Nil, fmt.Errorf("%s: unhandled expression %T", e.Pos(), e)
	}
}

func (b *builder) unary(e *ast.UnaryExpr) (Value, error) {
	switch e.Op {
	case token.MINUS:
		x, err := b.expr(e.X)
		if err != nil {
			return Nil, err
		}
		dst := b.newReg()
		b.emit(&Instr{Op: OpNeg, Dst: dst, A: x, Pos: e.Pos()})
		return reg(dst), nil
	case token.NOT:
		x, err := b.expr(e.X)
		if err != nil {
			return Nil, err
		}
		dst := b.newReg()
		b.emit(&Instr{Op: OpNot, Dst: dst, A: x, Pos: e.Pos()})
		return reg(dst), nil
	case token.STAR:
		p, err := b.expr(e.X)
		if err != nil {
			return Nil, err
		}
		dst := b.newReg()
		b.emit(&Instr{Op: OpLoad, Dst: dst, A: p, Size: sema.WordSize, Pos: e.Pos()})
		return reg(dst), nil
	case token.AMP:
		addr, _, err := b.addrOf(e.X)
		return addr, err
	}
	return Nil, fmt.Errorf("%s: unhandled unary op %s", e.Pos(), e.Op)
}

func (b *builder) binary(e *ast.BinaryExpr) (Value, error) {
	if e.Op == token.LAND || e.Op == token.LOR {
		return b.shortCircuit(e)
	}
	x, err := b.expr(e.X)
	if err != nil {
		return Nil, err
	}
	y, err := b.expr(e.Y)
	if err != nil {
		return Nil, err
	}
	// Pointer arithmetic scales by the element size. All our element
	// types are word-sized except string bytes, and MiniC (like the bug
	// suite) only ever indexes strings via [], so + and - scale by the
	// word size only when the checker typed the operand as a non-string
	// pointer.
	if e.Op == token.PLUS || e.Op == token.MINUS {
		xt := b.info.ExprTypes[e.X]
		yt := b.info.ExprTypes[e.Y]
		if xt != nil && xt.IsPointer() && yt != nil && yt.Kind == sema.KindInt {
			scaled := b.newReg()
			b.emit(&Instr{Op: OpBin, Dst: scaled, BinOp: token.STAR, A: y, B: constInt(sema.WordSize), Pos: e.Pos()})
			y = reg(scaled)
		}
	}
	dst := b.newReg()
	b.emit(&Instr{Op: OpBin, Dst: dst, BinOp: e.Op, A: x, B: y, Pos: e.Pos()})
	return reg(dst), nil
}

func (b *builder) shortCircuit(e *ast.BinaryExpr) (Value, error) {
	dst := b.newReg()
	first := int64(0)
	if e.Op == token.LOR {
		first = 1
	}
	b.emit(&Instr{Op: OpMov, Dst: dst, A: constInt(first), Pos: e.Pos()})
	x, err := b.expr(e.X)
	if err != nil {
		return Nil, err
	}
	evalY := b.fn.newBlock()
	end := b.fn.newBlock()
	if e.Op == token.LAND {
		b.emit(&Instr{Op: OpBr, Dst: -1, A: x, Then: evalY, Else: end, Pos: e.Pos()})
	} else {
		b.emit(&Instr{Op: OpBr, Dst: -1, A: x, Then: end, Else: evalY, Pos: e.Pos()})
	}
	b.cur = evalY
	y, err := b.expr(e.Y)
	if err != nil {
		return Nil, err
	}
	norm := b.newReg()
	b.emit(&Instr{Op: OpBin, Dst: norm, BinOp: token.NE, A: y, B: constInt(0), Pos: e.Y.Pos()})
	b.emit(&Instr{Op: OpMov, Dst: dst, A: reg(norm), Pos: e.Y.Pos()})
	b.emit(&Instr{Op: OpJmp, Dst: -1, Then: end, Pos: e.Pos()})
	b.cur = end
	return reg(dst), nil
}

func (b *builder) call(e *ast.CallExpr) (Value, error) {
	sig := b.info.CallSigs[e]
	if sig == nil {
		return Nil, fmt.Errorf("%s: unresolved call %s", e.Pos(), e.Fun.Name)
	}
	if sig.Builtin == sema.BuiltinSizeof {
		return constInt(b.info.ConstValues[e]), nil
	}
	var args []Value
	if sig.Builtin == sema.BuiltinSpawn {
		target := b.info.SpawnTargets[e]
		args = append(args, funcRef(target))
		v, err := b.expr(e.Args[1])
		if err != nil {
			return Nil, err
		}
		args = append(args, v)
	} else {
		for _, a := range e.Args {
			v, err := b.expr(a)
			if err != nil {
				return Nil, err
			}
			args = append(args, v)
		}
	}
	dst := -1
	if sig.Ret.Kind != sema.KindVoid {
		dst = b.newReg()
	}
	op := OpCall
	if sig.Builtin != sema.BuiltinNone {
		op = OpCallB
	}
	in := b.emit(&Instr{Op: op, Dst: dst, Callee: sig.Name, Builtin: sig.Builtin, Args: args, Pos: e.Pos()})
	if sig.Builtin == sema.BuiltinSpawn {
		// Recorded after finalize assigns IDs; stash via deferred fixup.
		b.pendingSpawns = append(b.pendingSpawns, in)
	}
	if dst < 0 {
		return Nil, nil
	}
	return reg(dst), nil
}

// addrOf lowers an lvalue expression to the register holding its address,
// and returns the access size in bytes.
func (b *builder) addrOf(e ast.Expr) (Value, int64, error) {
	switch e := e.(type) {
	case *ast.Ident:
		v := b.info.Uses[e]
		if v == nil {
			return Nil, 0, fmt.Errorf("%s: unresolved variable %s", e.Pos(), e.Name)
		}
		dst := b.newReg()
		if v.Global {
			b.emit(&Instr{Op: OpGlobalAddr, Dst: dst, Global: v.Slot, Pos: e.Pos()})
		} else {
			b.emit(&Instr{Op: OpLocalAddr, Dst: dst, Slot: v.Slot, Pos: e.Pos()})
		}
		return reg(dst), sema.WordSize, nil
	case *ast.UnaryExpr:
		if e.Op != token.STAR {
			return Nil, 0, fmt.Errorf("%s: not an lvalue", e.Pos())
		}
		p, err := b.expr(e.X)
		return p, sema.WordSize, err
	case *ast.FieldExpr:
		base, err := b.expr(e.X)
		if err != nil {
			return Nil, 0, err
		}
		xt := b.info.ExprTypes[e.X]
		fld := xt.Elem.Struct.Field(e.Name)
		dst := b.newReg()
		b.emit(&Instr{Op: OpFieldAddr, Dst: dst, A: base, Offset: fld.Offset, Pos: e.Pos()})
		return reg(dst), sema.WordSize, nil
	case *ast.IndexExpr:
		base, err := b.expr(e.X)
		if err != nil {
			return Nil, 0, err
		}
		idx, err := b.expr(e.Index)
		if err != nil {
			return Nil, 0, err
		}
		elemSz := int64(sema.WordSize)
		if xt := b.info.ExprTypes[e.X]; xt != nil && xt.Kind == sema.KindString {
			elemSz = 1
		}
		dst := b.newReg()
		b.emit(&Instr{Op: OpIndexAddr, Dst: dst, A: base, B: idx, ElemSz: elemSz, Pos: e.Pos()})
		return reg(dst), elemSz, nil
	default:
		return Nil, 0, fmt.Errorf("%s: not an lvalue: %T", e.Pos(), e)
	}
}
