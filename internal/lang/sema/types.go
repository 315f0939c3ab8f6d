// Package sema implements semantic analysis for MiniC: symbol resolution,
// a small nominal type system, struct layout, and the builtin function
// catalogue shared with the VM.
//
// Sema is the front end's only resolver. It binds every identifier to
// its variable, numbers each function's frame slots (parameters first,
// then locals in declaration order, one slot per declaration) and folds
// each global initializer to the value the IR lays out, so lowering
// never looks a name up.
//
// All MiniC values are 64-bit machine words: ints, pointers, and strings
// (a string value is a pointer to NUL-terminated bytes). Struct fields
// occupy one word each, so field offsets are 8*index. This mirrors the
// "everything is a word" flavor of the LLVM-level analyses in the paper
// while keeping the VM memory model trivial to reason about.
package sema

import (
	"fmt"
	"strings"
)

// WordSize is the size in bytes of every MiniC scalar (int, pointer, string).
const WordSize = 8

// TypeKind discriminates the Type variants.
type TypeKind int

// Type kinds.
const (
	KindInt TypeKind = iota
	KindString
	KindVoid
	KindPointer
	KindStruct
)

// Type is a resolved MiniC type.
type Type struct {
	Kind   TypeKind
	Elem   *Type       // for KindPointer
	Struct *StructInfo // for KindStruct
}

// Predefined scalar types. Types are compared with Equal, not pointer
// identity, so sharing these is a convenience, not a requirement.
var (
	TypeInt    = &Type{Kind: KindInt}
	TypeString = &Type{Kind: KindString}
	TypeVoid   = &Type{Kind: KindVoid}
)

// pointerTo returns the type *elem.
func pointerTo(elem *Type) *Type { return &Type{Kind: KindPointer, Elem: elem} }

// equal reports structural type equality (nominal for structs).
func (t *Type) equal(u *Type) bool {
	if t == nil || u == nil {
		return t == u
	}
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case KindPointer:
		return t.Elem.equal(u.Elem)
	case KindStruct:
		return t.Struct.Name == u.Struct.Name
	default:
		return true
	}
}

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t != nil && t.Kind == KindPointer }

// isPointerLike reports whether values of t are addresses (pointers and
// strings).
func (t *Type) isPointerLike() bool {
	return t != nil && (t.Kind == KindPointer || t.Kind == KindString)
}

// isScalar reports whether values of t fit into a single machine word
// (everything except bare struct types, which only exist behind pointers).
func (t *Type) isScalar() bool { return t != nil && t.Kind != KindStruct && t.Kind != KindVoid }

// String renders the type in MiniC syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil type>"
	}
	switch t.Kind {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindVoid:
		return "void"
	case KindPointer:
		return t.Elem.String() + "*"
	case KindStruct:
		return "struct " + t.Struct.Name
	default:
		return fmt.Sprintf("<type kind %d>", t.Kind)
	}
}

// StructInfo is a resolved struct declaration with field layout.
type StructInfo struct {
	Name   string
	Fields []FieldInfo
	byName map[string]int
}

// FieldInfo is a single resolved struct field.
type FieldInfo struct {
	Name   string
	Type   *Type
	Offset int64 // byte offset within the struct
}

// Field returns the field with the given name, or nil.
func (s *StructInfo) Field(name string) *FieldInfo {
	if i, ok := s.byName[name]; ok {
		return &s.Fields[i]
	}
	return nil
}

// size returns the struct's size in bytes.
func (s *StructInfo) size() int64 { return int64(len(s.Fields)) * WordSize }

// FuncSig is a function signature (user function or builtin).
type FuncSig struct {
	Name    string
	Params  []*Type
	Ret     *Type
	Builtin Builtin // BuiltinNone for user functions
	// Variadic builtins (print) accept extra int args.
	Variadic bool
}

// String renders the signature for diagnostics.
func (s *FuncSig) String() string {
	parts := make([]string, len(s.Params))
	for i, p := range s.Params {
		parts[i] = p.String()
	}
	return fmt.Sprintf("%s %s(%s)", s.Ret, s.Name, strings.Join(parts, ", "))
}

// Builtin identifies a builtin function implemented by the VM.
type Builtin int

// The builtin catalogue. These are the MiniC spellings of the runtime
// facilities the paper's target programs use: heap allocation, threads,
// mutexes, assertions, string helpers, and workload input.
const (
	BuiltinNone Builtin = iota
	BuiltinMalloc
	BuiltinFree
	BuiltinSpawn  // spawn(fn, arg) -> tid; creates a thread (TICFG edge)
	BuiltinJoin   // join(tid); joins a thread (TICFG edge)
	BuiltinLock   // lock(&m) on a mutex word
	BuiltinUnlock // unlock(&m)
	BuiltinAssert // assert(cond); failure point when cond == 0
	BuiltinPrint  // print(int...)
	BuiltinPrints // prints(string)
	BuiltinStrlen // strlen(s); segfaults on null, like C strlen
	BuiltinInput  // input(i) -> i-th int of the workload
	BuiltinInputStr
	BuiltinYield // yield(); scheduler hint, also a preemption point
	BuiltinSizeof
)

// Builtins maps MiniC names to signatures. sizeof is special-cased by the
// checker (its argument is a type name) and never reaches the VM.
var Builtins = map[string]*FuncSig{
	"malloc":    {Name: "malloc", Params: []*Type{TypeInt}, Ret: pointerTo(TypeVoid), Builtin: BuiltinMalloc},
	"free":      {Name: "free", Params: []*Type{nil}, Ret: TypeVoid, Builtin: BuiltinFree},
	"spawn":     {Name: "spawn", Params: []*Type{nil, TypeInt}, Ret: TypeInt, Builtin: BuiltinSpawn},
	"join":      {Name: "join", Params: []*Type{TypeInt}, Ret: TypeVoid, Builtin: BuiltinJoin},
	"lock":      {Name: "lock", Params: []*Type{nil}, Ret: TypeVoid, Builtin: BuiltinLock},
	"unlock":    {Name: "unlock", Params: []*Type{nil}, Ret: TypeVoid, Builtin: BuiltinUnlock},
	"assert":    {Name: "assert", Params: []*Type{TypeInt}, Ret: TypeVoid, Builtin: BuiltinAssert},
	"print":     {Name: "print", Params: []*Type{TypeInt}, Ret: TypeVoid, Builtin: BuiltinPrint, Variadic: true},
	"prints":    {Name: "prints", Params: []*Type{TypeString}, Ret: TypeVoid, Builtin: BuiltinPrints},
	"strlen":    {Name: "strlen", Params: []*Type{TypeString}, Ret: TypeInt, Builtin: BuiltinStrlen},
	"input":     {Name: "input", Params: []*Type{TypeInt}, Ret: TypeInt, Builtin: BuiltinInput},
	"input_str": {Name: "input_str", Params: []*Type{TypeInt}, Ret: TypeString, Builtin: BuiltinInputStr},
	"yield":     {Name: "yield", Params: nil, Ret: TypeVoid, Builtin: BuiltinYield},
	"sizeof":    {Name: "sizeof", Params: []*Type{nil}, Ret: TypeInt, Builtin: BuiltinSizeof},
}
