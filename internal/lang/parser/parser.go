// Package parser implements a recursive-descent parser for MiniC.
//
// The grammar (EBNF, whitespace/comments elided):
//
//	File       = { StructDecl | GlobalDecl | FuncDecl } .
//	StructDecl = "struct" IDENT "{" { Type IDENT ";" } "}" ";" .
//	GlobalDecl = "global" Type IDENT [ "=" Expr ] ";" .
//	FuncDecl   = Type IDENT "(" [ Param { "," Param } ] ")" Block .
//	Param      = Type IDENT .
//	Type       = ( "int" | "string" | "void" | "struct" IDENT ) { "*" } .
//	Block      = "{" { Stmt } "}" .
//	Stmt       = DeclStmt | IfStmt | WhileStmt | ForStmt | ReturnStmt
//	           | "break" ";" | "continue" ";" | Block | SimpleStmt ";" .
//	SimpleStmt = Expr [ "=" Expr ] | Expr "++" | Expr "--" .
//	Expr       = OrExpr .
//	OrExpr     = AndExpr { "||" AndExpr } .
//	AndExpr    = CmpExpr { "&&" CmpExpr } .
//	CmpExpr    = AddExpr { ("=="|"!="|"<"|"<="|">"|">=") AddExpr } .
//	AddExpr    = MulExpr { ("+"|"-") MulExpr } .
//	MulExpr    = UnaryExpr { ("*"|"/"|"%") UnaryExpr } .
//	UnaryExpr  = ( "-" | "!" | "*" | "&" ) UnaryExpr | Postfix .
//	Postfix    = Primary { "(" Args ")" | "[" Expr "]" | "->" IDENT } .
//	Primary    = INT | STRING | "null" | IDENT | "(" Expr ")" .
//
// i++ and i-- are desugared to i = i + 1 / i = i - 1 during parsing so the
// IR and the slicer only ever see plain assignments.
package parser

import (
	"fmt"

	"repro/internal/lang/ast"
	"repro/internal/lang/lexer"
	"repro/internal/lang/token"
)

const syntaxError = "syntax error: "

type parser struct {
	lex  *lexer.Lexer
	tok  token.Token // current token
	next token.Token // one token of lookahead
	errs token.ErrorList
}

// ParseFile parses a MiniC source file. On syntax errors it returns a
// partial AST together with a token.ErrorList; every message, the
// lexer's included, starts "syntax error: ".
func ParseFile(filename, src string) (*ast.File, error) {
	p := &parser{lex: lexer.New(filename, src)}
	p.tok = p.lex.Next()
	p.next = p.lex.Next()
	f := p.parseFile(filename)
	for _, le := range p.lex.Errors() {
		p.errs = append(p.errs, &token.Error{Pos: le.Pos, Msg: syntaxError + le.Msg})
	}
	if len(p.errs) > 0 {
		return f, p.errs
	}
	return f, nil
}

func (p *parser) advance() {
	p.tok = p.next
	if p.next.Kind != token.EOF {
		p.next = p.lex.Next()
	}
}

func (p *parser) errorf(pos token.Position, format string, args ...any) {
	p.errs = append(p.errs, &token.Error{Pos: pos, Msg: syntaxError + fmt.Sprintf(format, args...)})
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.tok
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		// Do not consume: the caller's recovery loop will skip tokens.
		return token.Token{Kind: k, Pos: t.Pos}
	}
	p.advance()
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

// sync skips tokens until a likely statement/declaration boundary to
// recover from a syntax error.
func (p *parser) sync() {
	for {
		switch p.tok.Kind {
		case token.EOF, token.RBRACE:
			return
		case token.SEMI:
			p.advance()
			return
		}
		p.advance()
	}
}

func (p *parser) parseFile(name string) *ast.File {
	f := &ast.File{Name: name}
	for p.tok.Kind != token.EOF {
		switch {
		case p.tok.Kind == token.KwStruct && p.next.Kind == token.IDENT && p.peekAfterStructName() == token.LBRACE:
			f.Structs = append(f.Structs, p.parseStructDecl())
		case p.tok.Kind == token.KwGlobal:
			f.Globals = append(f.Globals, p.parseGlobalDecl())
		case p.isTypeStart():
			f.Funcs = append(f.Funcs, p.parseFuncDecl())
		default:
			p.errorf(p.tok.Pos, "expected declaration, found %s", p.tok)
			p.sync()
			// sync stops at a '}', and none starts a declaration.
			p.accept(token.RBRACE)
		}
	}
	return f
}

// peekAfterStructName distinguishes "struct S { ... }" (a declaration) from
// "struct S* f(...)" (a type use). It requires 2 tokens of lookahead; since
// we only keep one, we cheat: p.tok is KwStruct and p.next is IDENT, so the
// interesting token is the one after p.next. We re-lex it cheaply via a
// cloned lexer state by peeking at the token kind cached in next. To stay
// simple we instead require struct *declarations* to appear at column 1 of
// a logical decl and rely on the brace: the only token that can follow
// "struct IDENT" at the top level in a declaration is "{"; in a function
// signature it is "*" or IDENT. We look ahead by saving the lexer.
func (p *parser) peekAfterStructName() token.Kind {
	// The lexer is a value-copyable scanner over an immutable string.
	save := *p.lex
	t := save.Next()
	return t.Kind
}

func (p *parser) isTypeStart() bool {
	switch p.tok.Kind {
	case token.KwInt, token.KwString, token.KwVoid, token.KwStruct:
		return true
	}
	return false
}

func (p *parser) parseType() ast.TypeExpr {
	var base ast.TypeExpr
	switch p.tok.Kind {
	case token.KwInt:
		base = &ast.NamedType{NamePos: p.tok.Pos, Name: "int"}
		p.advance()
	case token.KwString:
		base = &ast.NamedType{NamePos: p.tok.Pos, Name: "string"}
		p.advance()
	case token.KwVoid:
		base = &ast.NamedType{NamePos: p.tok.Pos, Name: "void"}
		p.advance()
	case token.KwStruct:
		pos := p.tok.Pos
		p.advance()
		name := p.expect(token.IDENT)
		base = &ast.StructRef{StructPos: pos, Name: name.Lit}
	default:
		p.errorf(p.tok.Pos, "expected type, found %s", p.tok)
		base = &ast.NamedType{NamePos: p.tok.Pos, Name: "int"}
		p.advance()
	}
	for p.accept(token.STAR) {
		base = &ast.PointerType{Elem: base}
	}
	return base
}

func (p *parser) parseStructDecl() *ast.StructDecl {
	pos := p.expect(token.KwStruct).Pos
	name := p.expect(token.IDENT)
	sd := &ast.StructDecl{StructPos: pos, Name: name.Lit}
	p.expect(token.LBRACE)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		ft := p.parseType()
		fn := p.expect(token.IDENT)
		p.expect(token.SEMI)
		sd.Fields = append(sd.Fields, &ast.Field{Type: ft, Name: fn.Lit, NPos: fn.Pos})
	}
	p.expect(token.RBRACE)
	p.accept(token.SEMI)
	return sd
}

func (p *parser) parseGlobalDecl() *ast.GlobalDecl {
	pos := p.expect(token.KwGlobal).Pos
	typ := p.parseType()
	name := p.expect(token.IDENT)
	g := &ast.GlobalDecl{GlobalPos: pos, Type: typ, Name: name.Lit}
	if p.accept(token.ASSIGN) {
		g.Init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return g
}

func (p *parser) parseFuncDecl() *ast.FuncDecl {
	ret := p.parseType()
	name := p.expect(token.IDENT)
	fd := &ast.FuncDecl{RetType: ret, Name: name.Lit, NamePos: name.Pos}
	p.expect(token.LPAREN)
	for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
		pt := p.parseType()
		pn := p.expect(token.IDENT)
		fd.Params = append(fd.Params, &ast.Field{Type: pt, Name: pn.Lit, NPos: pn.Pos})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	fd.Body = p.parseBlock()
	return fd
}

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBRACE)
	b := &ast.BlockStmt{LbracePos: lb.Pos}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		before := p.tok
		b.List = append(b.List, p.parseStmt())
		if p.tok == before { // no progress: recover
			p.sync()
		}
	}
	p.expect(token.RBRACE)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		pos := p.tok.Pos
		p.advance()
		var x ast.Expr
		if p.tok.Kind != token.SEMI {
			x = p.parseExpr()
		}
		p.expect(token.SEMI)
		return &ast.ReturnStmt{RetPos: pos, X: x}
	case token.KwBreak:
		pos := p.tok.Pos
		p.advance()
		p.expect(token.SEMI)
		return &ast.BreakStmt{KwPos: pos}
	case token.KwContinue:
		pos := p.tok.Pos
		p.advance()
		p.expect(token.SEMI)
		return &ast.ContinueStmt{KwPos: pos}
	}
	if p.isTypeStart() && !p.looksLikeExprStart() {
		s := p.parseDeclStmt()
		p.expect(token.SEMI)
		return s
	}
	s := p.parseSimpleStmt()
	p.expect(token.SEMI)
	return s
}

// looksLikeExprStart distinguishes a local declaration from an expression
// statement. The ambiguity arises only for "struct" (which always starts a
// declaration in statement position) — int/string/void likewise. So a type
// start is always a declaration; this hook exists for clarity.
func (p *parser) looksLikeExprStart() bool { return false }

func (p *parser) parseDeclStmt() ast.Stmt {
	typ := p.parseType()
	name := p.expect(token.IDENT)
	d := &ast.DeclStmt{Type: typ, Name: name.Lit, NPos: name.Pos}
	if p.accept(token.ASSIGN) {
		d.Init = p.parseExpr()
	}
	return d
}

func (p *parser) parseSimpleStmt() ast.Stmt {
	lhs := p.parseExpr()
	switch p.tok.Kind {
	case token.ASSIGN:
		p.advance()
		rhs := p.parseExpr()
		return &ast.AssignStmt{LHS: lhs, RHS: rhs}
	case token.PLUSPLUS:
		p.advance()
		return &ast.AssignStmt{LHS: lhs, RHS: &ast.BinaryExpr{Op: token.PLUS, X: lhs, Y: &ast.IntLit{LitPos: lhs.Pos(), Value: 1}}}
	case token.MINUSMIN:
		p.advance()
		return &ast.AssignStmt{LHS: lhs, RHS: &ast.BinaryExpr{Op: token.MINUS, X: lhs, Y: &ast.IntLit{LitPos: lhs.Pos(), Value: 1}}}
	}
	return &ast.ExprStmt{X: lhs}
}

func (p *parser) parseIf() ast.Stmt {
	pos := p.expect(token.KwIf).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.KwElse) {
		els = p.parseStmt()
	}
	return &ast.IfStmt{IfPos: pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseWhile() ast.Stmt {
	pos := p.expect(token.KwWhile).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return &ast.WhileStmt{WhilePos: pos, Cond: cond, Body: body}
}

func (p *parser) parseFor() ast.Stmt {
	pos := p.expect(token.KwFor).Pos
	p.expect(token.LPAREN)
	f := &ast.ForStmt{ForPos: pos}
	if p.tok.Kind != token.SEMI {
		if p.isTypeStart() {
			f.Init = p.parseDeclStmt()
		} else {
			f.Init = p.parseSimpleStmt()
		}
	}
	p.expect(token.SEMI)
	if p.tok.Kind != token.SEMI {
		f.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if p.tok.Kind != token.RPAREN {
		f.Post = p.parseSimpleStmt()
	}
	p.expect(token.RPAREN)
	f.Body = p.parseStmt()
	return f
}

// ---------------------------------------------------------------- exprs

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

// Binary operator precedence levels, lowest first.
func precOf(k token.Kind) int {
	switch k {
	case token.LOR:
		return 1
	case token.LAND:
		return 2
	case token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE:
		return 3
	case token.PLUS, token.MINUS:
		return 4
	case token.STAR, token.SLASH, token.PERCENT:
		return 5
	}
	return 0
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := precOf(p.tok.Kind)
		if prec < minPrec || prec == 0 {
			return x
		}
		op := p.tok.Kind
		p.advance()
		y := p.parseBinary(prec + 1)
		x = &ast.BinaryExpr{Op: op, X: x, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.tok.Kind {
	case token.MINUS, token.NOT, token.STAR, token.AMP:
		op := p.tok.Kind
		pos := p.tok.Pos
		p.advance()
		x := p.parseUnary()
		return &ast.UnaryExpr{OpPos: pos, Op: op, X: x}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.tok.Kind {
		case token.LPAREN:
			id, ok := x.(*ast.Ident)
			if !ok {
				p.errorf(p.tok.Pos, "called object is not a function name")
				id = &ast.Ident{NamePos: x.Pos(), Name: "<bad>"}
			}
			p.advance()
			call := &ast.CallExpr{Fun: id}
			for p.tok.Kind != token.RPAREN && p.tok.Kind != token.EOF {
				call.Args = append(call.Args, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
			x = call
		case token.LBRACK:
			p.advance()
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			x = &ast.IndexExpr{X: x, Index: idx}
		case token.ARROW:
			p.advance()
			name := p.expect(token.IDENT)
			x = &ast.FieldExpr{X: x, Name: name.Lit, NPos: name.Pos}
		default:
			return x
		}
	}
}

func (p *parser) parsePrimary() ast.Expr {
	switch p.tok.Kind {
	case token.INT:
		t := p.tok
		p.advance()
		var v int64
		for i := 0; i < len(t.Lit); i++ {
			v = v*10 + int64(t.Lit[i]-'0')
		}
		return &ast.IntLit{LitPos: t.Pos, Value: v}
	case token.STRING:
		t := p.tok
		p.advance()
		return &ast.StringLit{LitPos: t.Pos, Value: t.Lit}
	case token.KwNull:
		t := p.tok
		p.advance()
		return &ast.NullLit{LitPos: t.Pos}
	case token.IDENT:
		t := p.tok
		p.advance()
		return &ast.Ident{NamePos: t.Pos, Name: t.Lit}
	case token.LPAREN:
		p.advance()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	}
	p.errorf(p.tok.Pos, "expected expression, found %s", p.tok)
	t := p.tok
	p.advance()
	return &ast.IntLit{LitPos: t.Pos, Value: 0}
}
