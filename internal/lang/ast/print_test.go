package ast

import (
	"strings"
	"testing"

	"repro/internal/lang/token"
)

func pos() token.Position { return token.Position{Line: 1, Col: 1} }

func TestPrintType(t *testing.T) {
	cases := []struct {
		t    TypeExpr
		want string
	}{
		{&NamedType{Name: "int"}, "int"},
		{&NamedType{Name: "string"}, "string"},
		{&StructRef{Name: "queue"}, "struct queue"},
		{&PointerType{Elem: &NamedType{Name: "int"}}, "int*"},
		{&PointerType{Elem: &PointerType{Elem: &StructRef{Name: "s"}}}, "struct s**"},
	}
	for _, c := range cases {
		if got := printType(c.t); got != c.want {
			t.Errorf("PrintType: got %q, want %q", got, c.want)
		}
	}
}

func TestPrintExpr(t *testing.T) {
	x := &Ident{NamePos: pos(), Name: "x"}
	y := &Ident{NamePos: pos(), Name: "y"}
	cases := []struct {
		e    Expr
		want string
	}{
		{&IntLit{LitPos: pos(), Value: 42}, "42"},
		{&StringLit{LitPos: pos(), Value: "a\nb"}, `"a\nb"`},
		{&NullLit{LitPos: pos()}, "null"},
		{&UnaryExpr{OpPos: pos(), Op: token.MINUS, X: x}, "-(x)"},
		{&UnaryExpr{OpPos: pos(), Op: token.NOT, X: x}, "!(x)"},
		{&UnaryExpr{OpPos: pos(), Op: token.STAR, X: x}, "*(x)"},
		{&UnaryExpr{OpPos: pos(), Op: token.AMP, X: x}, "&(x)"},
		{&BinaryExpr{Op: token.PLUS, X: x, Y: y}, "(x + y)"},
		{&CallExpr{Fun: &Ident{NamePos: pos(), Name: "f"}, Args: []Expr{x, y}}, "f(x, y)"},
		{&IndexExpr{X: x, Index: y}, "x[y]"},
		{&FieldExpr{X: x, Name: "mut", NPos: pos()}, "x->mut"},
	}
	for _, c := range cases {
		if got := PrintExpr(c.e); got != c.want {
			t.Errorf("PrintExpr: got %q, want %q", got, c.want)
		}
	}
}

func TestPrintStmtShapes(t *testing.T) {
	x := &Ident{NamePos: pos(), Name: "x"}
	one := &IntLit{LitPos: pos(), Value: 1}
	cases := []struct {
		s    Stmt
		frag string
	}{
		{&DeclStmt{Type: &NamedType{Name: "int"}, Name: "x", NPos: pos(), Init: one}, "int x = 1;"},
		{&DeclStmt{Type: &NamedType{Name: "int"}, Name: "x", NPos: pos()}, "int x;"},
		{&AssignStmt{LHS: x, RHS: one}, "x = 1;"},
		{&ExprStmt{X: x}, "x;"},
		{&ReturnStmt{RetPos: pos(), X: one}, "return 1;"},
		{&ReturnStmt{RetPos: pos()}, "return;"},
		{&BreakStmt{KwPos: pos()}, "break;"},
		{&ContinueStmt{KwPos: pos()}, "continue;"},
		{&IfStmt{IfPos: pos(), Cond: x, Then: &ExprStmt{X: one}}, "if (x)"},
		{&WhileStmt{WhilePos: pos(), Cond: x, Body: &ExprStmt{X: one}}, "while (x)"},
	}
	for _, c := range cases {
		if got := printStmt(c.s, 0); !strings.Contains(got, c.frag) {
			t.Errorf("PrintStmt: got %q, want fragment %q", got, c.frag)
		}
	}
}

func TestPositionsPropagate(t *testing.T) {
	p := token.Position{File: "f.mc", Line: 3, Col: 7}
	nodes := []Node{
		&IntLit{LitPos: p},
		&Ident{NamePos: p},
		&BreakStmt{KwPos: p},
		&IfStmt{IfPos: p},
		&StructDecl{StructPos: p},
		&GlobalDecl{GlobalPos: p},
	}
	for _, n := range nodes {
		if n.Pos() != p {
			t.Errorf("%T.Pos() = %v", n, n.Pos())
		}
	}
}
