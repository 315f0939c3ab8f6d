// Package token defines the lexical tokens of MiniC, the small C-like
// language used as the compilation substrate for the failure-sketching
// pipeline. MiniC plays the role that C + LLVM play in the Gist paper:
// programs under diagnosis are written in MiniC, compiled to the IR in
// package ir, and executed on the VM in package vm.
package token

import "fmt"

// Kind enumerates the lexical token kinds.
type Kind int

// Token kinds. Literal kinds carry their text in Token.Lit.
const (
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT  // main, obj, refcnt
	INT    // 123
	STRING // "{}{"

	// Operators and delimiters.
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %

	AMP  // &
	NOT  // !
	LAND // &&
	LOR  // ||

	EQ // ==
	NE // !=
	LT // <
	LE // <=
	GT // >
	GE // >=

	ASSIGN // =
	ARROW  // ->

	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	COMMA    // ,
	SEMI     // ;
	DOT      // .
	PLUSPLUS // ++
	MINUSMIN // --

	// Keywords.
	KwInt
	KwString
	KwVoid
	KwStruct
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwNull
	KwGlobal
)

var kindNames = map[Kind]string{
	ILLEGAL:  "ILLEGAL",
	EOF:      "EOF",
	IDENT:    "IDENT",
	INT:      "INT",
	STRING:   "STRING",
	PLUS:     "+",
	MINUS:    "-",
	STAR:     "*",
	SLASH:    "/",
	PERCENT:  "%",
	AMP:      "&",
	NOT:      "!",
	LAND:     "&&",
	LOR:      "||",
	EQ:       "==",
	NE:       "!=",
	LT:       "<",
	LE:       "<=",
	GT:       ">",
	GE:       ">=",
	ASSIGN:   "=",
	ARROW:    "->",
	LPAREN:   "(",
	RPAREN:   ")",
	LBRACE:   "{",
	RBRACE:   "}",
	LBRACK:   "[",
	RBRACK:   "]",
	COMMA:    ",",
	SEMI:     ";",
	DOT:      ".",
	PLUSPLUS: "++",
	MINUSMIN: "--",

	KwInt:      "int",
	KwString:   "string",
	KwVoid:     "void",
	KwStruct:   "struct",
	KwIf:       "if",
	KwElse:     "else",
	KwWhile:    "while",
	KwFor:      "for",
	KwReturn:   "return",
	KwBreak:    "break",
	KwContinue: "continue",
	KwNull:     "null",
	KwGlobal:   "global",
}

// String returns a human-readable name for the kind (the operator text for
// operators, the keyword for keywords).
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"int":      KwInt,
	"string":   KwString,
	"void":     KwVoid,
	"struct":   KwStruct,
	"if":       KwIf,
	"else":     KwElse,
	"while":    KwWhile,
	"for":      KwFor,
	"return":   KwReturn,
	"break":    KwBreak,
	"continue": KwContinue,
	"null":     KwNull,
	"global":   KwGlobal,
}

// LookupIdent maps an identifier to its keyword kind, or IDENT if it is not
// a keyword.
func LookupIdent(name string) Kind {
	if k, ok := keywords[name]; ok {
		return k
	}
	return IDENT
}

// Position is a source position: 1-based line and column within a named file.
type Position struct {
	File string
	Line int
	Col  int
}

// String renders the position as file:line:col (or line:col without a file).
func (p Position) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexical token with its source position.
type Token struct {
	Kind Kind
	Lit  string // literal text for IDENT, INT, STRING (unquoted)
	Pos  Position
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT:
		return t.Lit
	case STRING:
		return fmt.Sprintf("%q", t.Lit)
	default:
		return t.Kind.String()
	}
}
