package sema

import (
	"fmt"

	"repro/internal/lang/ast"
	"repro/internal/lang/token"
)

// VarInfo describes a resolved variable (global, parameter, or local).
type VarInfo struct {
	Name   string
	Type   *Type
	Global bool
	// Slot is a global's index in Info.Globals, or a parameter's or
	// local's frame slot: parameters first, then locals in declaration
	// order.
	Slot int
}

// FuncInfo is a resolved function: its declaration, signature and the
// number of frame slots its parameters and locals take.
type FuncInfo struct {
	Decl  *ast.FuncDecl
	Sig   *FuncSig
	Slots int
}

// Info is the result of type-checking a file. It is a side table keyed by
// AST nodes, in the style of go/types.
type Info struct {
	File    *ast.File
	Structs map[string]*StructInfo
	Globals []*VarInfo
	Funcs   map[string]*FuncInfo

	// ExprTypes records the type of every checked expression.
	ExprTypes map[ast.Expr]*Type
	// Uses resolves identifier expressions to variables.
	Uses map[*ast.Ident]*VarInfo
	// Decls records the local each declaration statement declares.
	Decls map[*ast.DeclStmt]*VarInfo
	// SpawnTargets records, for each spawn(...) call, the statically known
	// thread start routine. This is the information the paper recovers with
	// data structure analysis to build the TICFG.
	SpawnTargets map[*ast.CallExpr]string
	// CallSigs records the resolved callee signature of every call.
	CallSigs map[*ast.CallExpr]*FuncSig
	// ConstValues records expressions folded to constants: sizeof calls
	// and every global initializer but a string literal.
	ConstValues map[ast.Expr]int64
}

// anyPtr is the wildcard pointer type (malloc's return type): assignable to
// and from every pointer-like type, like void* in C.
var anyPtr = pointerTo(TypeVoid)

func isAnyPtr(t *Type) bool { return t.Kind == KindPointer && t.Elem.Kind == KindVoid }

// assignable reports whether a value of type src can be stored into a
// location of type dst.
func assignable(dst, src *Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if dst.equal(src) {
		return true
	}
	if dst.isPointerLike() && isAnyPtr(src) {
		return true
	}
	if isAnyPtr(dst) && src.isPointerLike() {
		return true
	}
	return false
}

type checker struct {
	info   *Info
	errs   token.ErrorList
	scopes []map[string]*VarInfo
	cur    *FuncInfo
	loops  int
}

// Check resolves and type-checks a parsed file.
func Check(f *ast.File) (*Info, error) {
	c := &checker{info: &Info{
		File:         f,
		Structs:      make(map[string]*StructInfo),
		Funcs:        make(map[string]*FuncInfo),
		ExprTypes:    make(map[ast.Expr]*Type),
		Uses:         make(map[*ast.Ident]*VarInfo),
		Decls:        make(map[*ast.DeclStmt]*VarInfo),
		SpawnTargets: make(map[*ast.CallExpr]string),
		CallSigs:     make(map[*ast.CallExpr]*FuncSig),
		ConstValues:  make(map[ast.Expr]int64),
	}}
	c.collectStructs(f)
	c.collectGlobals(f)
	c.collectFuncs(f)
	for _, fn := range f.Funcs {
		c.checkFunc(fn)
	}
	if _, ok := c.info.Funcs["main"]; !ok {
		c.errorf(token.Position{File: f.Name, Line: 1, Col: 1}, "no main function")
	}
	if len(c.errs) > 0 {
		return c.info, c.errs
	}
	return c.info, nil
}

func (c *checker) errorf(pos token.Position, format string, args ...any) {
	c.errs = append(c.errs, &token.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) collectStructs(f *ast.File) {
	// Two passes so structs may contain pointers to later-declared structs.
	for _, sd := range f.Structs {
		if _, dup := c.info.Structs[sd.Name]; dup {
			c.errorf(sd.Pos(), "duplicate struct %s", sd.Name)
			continue
		}
		c.info.Structs[sd.Name] = &StructInfo{Name: sd.Name, byName: make(map[string]int)}
	}
	for _, sd := range f.Structs {
		si := c.info.Structs[sd.Name]
		for i, fld := range sd.Fields {
			ft := c.resolveType(fld.Type)
			if ft.Kind == KindStruct {
				c.errorf(fld.Pos(), "struct field %s.%s must be scalar or pointer (use struct %s*)",
					sd.Name, fld.Name, ft.Struct.Name)
				ft = TypeInt
			}
			if _, dup := si.byName[fld.Name]; dup {
				c.errorf(fld.Pos(), "duplicate field %s in struct %s", fld.Name, sd.Name)
				continue
			}
			si.byName[fld.Name] = len(si.Fields)
			si.Fields = append(si.Fields, FieldInfo{Name: fld.Name, Type: ft, Offset: int64(i) * WordSize})
		}
		// Recompute offsets in case duplicates were skipped.
		for i := range si.Fields {
			si.Fields[i].Offset = int64(i) * WordSize
		}
	}
}

func (c *checker) collectGlobals(f *ast.File) {
	seen := make(map[string]bool)
	for _, g := range f.Globals {
		t := c.resolveType(g.Type)
		if t.Kind == KindStruct || t.Kind == KindVoid {
			c.errorf(g.Pos(), "global %s must be scalar or pointer", g.Name)
			t = TypeInt
		}
		if seen[g.Name] {
			c.errorf(g.Pos(), "duplicate global %s", g.Name)
			continue
		}
		seen[g.Name] = true
		c.info.Globals = append(c.info.Globals, &VarInfo{Name: g.Name, Type: t, Global: true, Slot: len(c.info.Globals)})
		if g.Init != nil {
			if v, ok := constInit(g.Init); !ok {
				c.errorf(g.Pos(), "global initializer must be a constant")
			} else if _, str := g.Init.(*ast.StringLit); !str {
				c.info.ConstValues[g.Init] = v
			}
			it := c.checkExpr(g.Init)
			if it != nil && !assignable(t, it) && !(t.isPointerLike() && isNull(g.Init)) {
				c.errorf(g.Init.Pos(), "cannot initialize global %s (%s) with %s", g.Name, t, it)
			}
		}
	}
}

// constInit reports whether e is a global initializer the IR lays out
// statically — an integer, string or null literal, or a negated integer
// literal — and returns its value (0 for a string).
func constInit(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.NullLit, *ast.StringLit:
		return 0, true
	case *ast.UnaryExpr:
		if lit, ok := e.X.(*ast.IntLit); ok && e.Op == token.MINUS {
			return -lit.Value, true
		}
	}
	return 0, false
}

func isNull(e ast.Expr) bool {
	_, ok := e.(*ast.NullLit)
	return ok
}

func (c *checker) collectFuncs(f *ast.File) {
	for _, fn := range f.Funcs {
		if _, isBuiltin := Builtins[fn.Name]; isBuiltin {
			c.errorf(fn.Pos(), "function %s shadows a builtin", fn.Name)
			continue
		}
		if _, dup := c.info.Funcs[fn.Name]; dup {
			c.errorf(fn.Pos(), "duplicate function %s", fn.Name)
			continue
		}
		sig := &FuncSig{Name: fn.Name, Ret: c.resolveType(fn.RetType)}
		for _, p := range fn.Params {
			pt := c.resolveType(p.Type)
			if !pt.isScalar() {
				c.errorf(p.Pos(), "parameter %s of %s must be scalar or pointer", p.Name, fn.Name)
				pt = TypeInt
			}
			sig.Params = append(sig.Params, pt)
		}
		if sig.Ret.Kind == KindStruct {
			c.errorf(fn.Pos(), "function %s cannot return a struct by value", fn.Name)
			sig.Ret = TypeInt
		}
		c.info.Funcs[fn.Name] = &FuncInfo{Decl: fn, Sig: sig}
	}
}

func (c *checker) resolveType(t ast.TypeExpr) *Type {
	switch t := t.(type) {
	case *ast.NamedType:
		switch t.Name {
		case "int":
			return TypeInt
		case "string":
			return TypeString
		case "void":
			return TypeVoid
		}
		c.errorf(t.Pos(), "unknown type %s", t.Name)
		return TypeInt
	case *ast.StructRef:
		si, ok := c.info.Structs[t.Name]
		if !ok {
			c.errorf(t.Pos(), "unknown struct %s", t.Name)
			return TypeInt
		}
		return &Type{Kind: KindStruct, Struct: si}
	case *ast.PointerType:
		return pointerTo(c.resolveType(t.Elem))
	default:
		return TypeInt
	}
}

// ---------------------------------------------------------------- scopes

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]*VarInfo)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(pos token.Position, v *VarInfo) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[v.Name]; dup {
		c.errorf(pos, "redeclared variable %s", v.Name)
		return
	}
	top[v.Name] = v
}

// newLocal gives a parameter or local of the current function the next
// frame slot.
func (c *checker) newLocal(name string, t *Type) *VarInfo {
	v := &VarInfo{Name: name, Type: t, Slot: c.cur.Slots}
	c.cur.Slots++
	return v
}

func (c *checker) lookup(name string) *VarInfo {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v
		}
	}
	for _, g := range c.info.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// ---------------------------------------------------------------- stmts

func (c *checker) checkFunc(fn *ast.FuncDecl) {
	fi, ok := c.info.Funcs[fn.Name]
	if !ok || fi.Decl != fn {
		return // a builtin's name or a duplicate, already reported
	}
	c.cur = fi
	c.pushScope()
	for i, p := range fn.Params {
		c.declare(p.Pos(), c.newLocal(p.Name, fi.Sig.Params[i]))
	}
	c.checkStmt(fn.Body)
	c.popScope()
	c.cur = nil
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.pushScope()
		for _, st := range s.List {
			c.checkStmt(st)
		}
		c.popScope()
	case *ast.DeclStmt:
		t := c.resolveType(s.Type)
		if !t.isScalar() {
			c.errorf(s.Pos(), "local %s must be scalar or pointer", s.Name)
			t = TypeInt
		}
		if s.Init != nil {
			it := c.checkExpr(s.Init)
			if it != nil && !assignable(t, it) && !(t.isPointerLike() && isNull(s.Init)) && !(t.Kind == KindInt && it.isPointerLike()) {
				c.errorf(s.Init.Pos(), "cannot initialize %s (%s) with %s", s.Name, t, it)
			}
		}
		v := c.newLocal(s.Name, t)
		c.info.Decls[s] = v
		c.declare(s.Pos(), v)
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.AssignStmt:
		lt := c.checkLValue(s.LHS)
		rt := c.checkExpr(s.RHS)
		if lt != nil && rt != nil && !assignable(lt, rt) &&
			!(lt.isPointerLike() && isNull(s.RHS)) &&
			!(lt.Kind == KindInt && rt.isPointerLike()) {
			c.errorf(s.Pos(), "cannot assign %s to %s", rt, lt)
		}
	case *ast.IfStmt:
		c.checkCond(s.Cond)
		c.checkStmt(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.WhileStmt:
		c.checkCond(s.Cond)
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
	case *ast.ForStmt:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCond(s.Cond)
		}
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
		c.popScope()
	case *ast.ReturnStmt:
		ret := c.cur.Sig.Ret
		if s.X == nil {
			if ret.Kind != KindVoid {
				c.errorf(s.Pos(), "missing return value in %s (returns %s)", c.cur.Sig.Name, ret)
			}
			return
		}
		if ret.Kind == KindVoid {
			c.errorf(s.Pos(), "unexpected return value in void function %s", c.cur.Sig.Name)
			c.checkExpr(s.X)
			return
		}
		t := c.checkExpr(s.X)
		if t != nil && !assignable(ret, t) && !(ret.isPointerLike() && isNull(s.X)) {
			c.errorf(s.Pos(), "cannot return %s from %s (returns %s)", t, c.cur.Sig.Name, ret)
		}
	case *ast.BreakStmt:
		if c.loops == 0 {
			c.errorf(s.Pos(), "break outside loop")
		}
	case *ast.ContinueStmt:
		if c.loops == 0 {
			c.errorf(s.Pos(), "continue outside loop")
		}
	default:
		c.errorf(s.Pos(), "unhandled statement %T", s)
	}
}

func (c *checker) checkCond(e ast.Expr) {
	t := c.checkExpr(e)
	if t != nil && !t.isScalar() {
		c.errorf(e.Pos(), "condition must be scalar, got %s", t)
	}
}

// checkLValue checks an expression in store position and returns the type
// of the location.
func (c *checker) checkLValue(e ast.Expr) *Type {
	switch e := e.(type) {
	case *ast.Ident, *ast.FieldExpr, *ast.IndexExpr:
		return c.checkExpr(e)
	case *ast.UnaryExpr:
		if e.Op == token.STAR {
			return c.checkExpr(e)
		}
	}
	c.errorf(e.Pos(), "cannot assign to %s", ast.PrintExpr(e))
	return c.checkExpr(e)
}

// ---------------------------------------------------------------- exprs

func (c *checker) setType(e ast.Expr, t *Type) *Type {
	c.info.ExprTypes[e] = t
	return t
}

func (c *checker) checkExpr(e ast.Expr) *Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return c.setType(e, TypeInt)
	case *ast.StringLit:
		return c.setType(e, TypeString)
	case *ast.NullLit:
		return c.setType(e, anyPtr)
	case *ast.Ident:
		v := c.lookup(e.Name)
		if v == nil {
			c.errorf(e.Pos(), "undefined variable %s", e.Name)
			return c.setType(e, TypeInt)
		}
		c.info.Uses[e] = v
		return c.setType(e, v.Type)
	case *ast.UnaryExpr:
		return c.setType(e, c.checkUnary(e))
	case *ast.BinaryExpr:
		return c.setType(e, c.checkBinary(e))
	case *ast.CallExpr:
		return c.setType(e, c.checkCall(e))
	case *ast.IndexExpr:
		return c.setType(e, c.checkIndex(e))
	case *ast.FieldExpr:
		return c.setType(e, c.checkField(e))
	default:
		c.errorf(e.Pos(), "unhandled expression %T", e)
		return TypeInt
	}
}

func (c *checker) checkUnary(e *ast.UnaryExpr) *Type {
	switch e.Op {
	case token.MINUS, token.NOT:
		t := c.checkExpr(e.X)
		if t != nil && t.Kind != KindInt && !(e.Op == token.NOT && t.isPointerLike()) {
			c.errorf(e.Pos(), "operator %s requires int, got %s", e.Op, t)
		}
		return TypeInt
	case token.STAR:
		t := c.checkExpr(e.X)
		if t == nil || !t.IsPointer() {
			c.errorf(e.Pos(), "cannot dereference %s", t)
			return TypeInt
		}
		if isAnyPtr(t) {
			return TypeInt
		}
		if !t.Elem.isScalar() {
			c.errorf(e.Pos(), "cannot load struct value; access fields with ->")
			return TypeInt
		}
		return t.Elem
	case token.AMP:
		switch x := e.X.(type) {
		case *ast.Ident:
			t := c.checkExpr(x)
			return pointerTo(t)
		case *ast.FieldExpr:
			t := c.checkExpr(x)
			return pointerTo(t)
		case *ast.IndexExpr:
			t := c.checkExpr(x)
			return pointerTo(t)
		default:
			c.errorf(e.Pos(), "cannot take address of %s", ast.PrintExpr(e.X))
			c.checkExpr(e.X)
			return anyPtr
		}
	}
	c.errorf(e.Pos(), "unhandled unary operator %s", e.Op)
	return TypeInt
}

func (c *checker) checkBinary(e *ast.BinaryExpr) *Type {
	xt := c.checkExpr(e.X)
	yt := c.checkExpr(e.Y)
	if xt == nil || yt == nil {
		return TypeInt
	}
	switch e.Op {
	case token.PLUS, token.MINUS:
		// int op int, ptr ± int, ptr - ptr.
		switch {
		case xt.Kind == KindInt && yt.Kind == KindInt:
			return TypeInt
		case xt.isPointerLike() && yt.Kind == KindInt:
			return xt
		case e.Op == token.MINUS && xt.isPointerLike() && yt.isPointerLike():
			return TypeInt
		}
		c.errorf(e.Pos(), "invalid operands to %s: %s and %s", e.Op, xt, yt)
		return TypeInt
	case token.STAR, token.SLASH, token.PERCENT:
		if xt.Kind != KindInt || yt.Kind != KindInt {
			c.errorf(e.Pos(), "operator %s requires ints, got %s and %s", e.Op, xt, yt)
		}
		return TypeInt
	case token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE:
		ok := (xt.Kind == KindInt && yt.Kind == KindInt) ||
			(xt.isPointerLike() && yt.isPointerLike()) ||
			(xt.isPointerLike() && isAnyPtr(yt)) ||
			(isAnyPtr(xt) && yt.isPointerLike())
		if !ok {
			c.errorf(e.Pos(), "cannot compare %s and %s", xt, yt)
		}
		return TypeInt
	case token.LAND, token.LOR:
		return TypeInt
	}
	c.errorf(e.Pos(), "unhandled binary operator %s", e.Op)
	return TypeInt
}

func (c *checker) checkIndex(e *ast.IndexExpr) *Type {
	xt := c.checkExpr(e.X)
	it := c.checkExpr(e.Index)
	if it != nil && it.Kind != KindInt {
		c.errorf(e.Index.Pos(), "index must be int, got %s", it)
	}
	if xt == nil {
		return TypeInt
	}
	switch {
	case xt.Kind == KindString:
		return TypeInt // byte read, widened
	case xt.IsPointer() && !isAnyPtr(xt) && xt.Elem.isScalar():
		return xt.Elem
	case isAnyPtr(xt):
		return TypeInt
	}
	c.errorf(e.Pos(), "cannot index %s", xt)
	return TypeInt
}

func (c *checker) checkField(e *ast.FieldExpr) *Type {
	xt := c.checkExpr(e.X)
	if xt == nil || !xt.IsPointer() || xt.Elem.Kind != KindStruct {
		c.errorf(e.Pos(), "-> requires a struct pointer, got %s", xt)
		return TypeInt
	}
	fld := xt.Elem.Struct.Field(e.Name)
	if fld == nil {
		c.errorf(e.NPos, "struct %s has no field %s", xt.Elem.Struct.Name, e.Name)
		return TypeInt
	}
	return fld.Type
}

func (c *checker) checkCall(e *ast.CallExpr) *Type {
	name := e.Fun.Name
	if sig, ok := Builtins[name]; ok {
		return c.checkBuiltinCall(e, sig)
	}
	fi, ok := c.info.Funcs[name]
	if !ok {
		c.errorf(e.Fun.Pos(), "undefined function %s", name)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		return TypeInt
	}
	c.info.CallSigs[e] = fi.Sig
	if len(e.Args) != len(fi.Sig.Params) {
		c.errorf(e.Pos(), "%s expects %d arguments, got %d", name, len(fi.Sig.Params), len(e.Args))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i < len(fi.Sig.Params) && at != nil && !assignable(fi.Sig.Params[i], at) &&
			!(fi.Sig.Params[i].isPointerLike() && isNull(a)) {
			c.errorf(a.Pos(), "argument %d of %s: cannot use %s as %s", i+1, name, at, fi.Sig.Params[i])
		}
	}
	return fi.Sig.Ret
}

func (c *checker) checkBuiltinCall(e *ast.CallExpr, sig *FuncSig) *Type {
	c.info.CallSigs[e] = sig
	switch sig.Builtin {
	case BuiltinSizeof:
		if len(e.Args) != 1 {
			c.errorf(e.Pos(), "sizeof expects exactly 1 argument")
			return TypeInt
		}
		id, ok := e.Args[0].(*ast.Ident)
		if !ok {
			c.errorf(e.Args[0].Pos(), "sizeof argument must be a struct name")
			return TypeInt
		}
		si, ok := c.info.Structs[id.Name]
		if !ok {
			c.errorf(id.Pos(), "sizeof: unknown struct %s", id.Name)
			return TypeInt
		}
		c.setType(e.Args[0], TypeInt)
		c.info.ConstValues[e] = si.size()
		return TypeInt
	case BuiltinSpawn:
		if len(e.Args) != 2 {
			c.errorf(e.Pos(), "spawn expects (function, int)")
			return TypeInt
		}
		id, ok := e.Args[0].(*ast.Ident)
		if !ok {
			c.errorf(e.Args[0].Pos(), "spawn's first argument must be a function name")
		} else if fi, ok := c.info.Funcs[id.Name]; !ok {
			c.errorf(id.Pos(), "spawn: undefined function %s", id.Name)
		} else {
			if len(fi.Sig.Params) != 1 || !fi.Sig.Params[0].isScalar() {
				c.errorf(id.Pos(), "spawn target %s must take exactly one scalar argument", id.Name)
			}
			c.info.SpawnTargets[e] = id.Name
			c.setType(e.Args[0], TypeInt)
		}
		at := c.checkExpr(e.Args[1])
		if at != nil && !at.isScalar() {
			c.errorf(e.Args[1].Pos(), "spawn argument must be scalar")
		}
		return TypeInt
	case BuiltinFree, BuiltinLock, BuiltinUnlock:
		if len(e.Args) != 1 {
			c.errorf(e.Pos(), "%s expects exactly 1 argument", sig.Name)
			return sig.Ret
		}
		at := c.checkExpr(e.Args[0])
		if at != nil && !at.isPointerLike() {
			c.errorf(e.Args[0].Pos(), "%s requires a pointer, got %s", sig.Name, at)
		}
		return sig.Ret
	case BuiltinPrint:
		if len(e.Args) == 0 {
			c.errorf(e.Pos(), "print expects at least 1 argument")
		}
		for _, a := range e.Args {
			at := c.checkExpr(a)
			if at != nil && !at.isScalar() {
				c.errorf(a.Pos(), "print argument must be scalar")
			}
		}
		return TypeVoid
	default:
		if len(e.Args) != len(sig.Params) {
			c.errorf(e.Pos(), "%s expects %d arguments, got %d", sig.Name, len(sig.Params), len(e.Args))
		}
		for i, a := range e.Args {
			at := c.checkExpr(a)
			if i >= len(sig.Params) || sig.Params[i] == nil {
				continue // wildcard parameter
			}
			if at != nil && !assignable(sig.Params[i], at) && !(sig.Params[i].isPointerLike() && isNull(a)) {
				c.errorf(a.Pos(), "argument %d of %s: cannot use %s as %s", i+1, sig.Name, at, sig.Params[i])
			}
		}
		return sig.Ret
	}
}
