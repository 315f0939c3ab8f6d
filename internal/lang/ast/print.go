package ast

import (
	"fmt"
	"strings"

	"repro/internal/lang/token"
)

// printType renders a syntactic type expression as MiniC source.
func printType(t TypeExpr) string {
	switch t := t.(type) {
	case *NamedType:
		return t.Name
	case *StructRef:
		return "struct " + t.Name
	case *PointerType:
		return printType(t.Elem) + "*"
	default:
		return fmt.Sprintf("<?type %T>", t)
	}
}

// PrintExpr renders an expression as MiniC source. The output is fully
// parenthesized for binary/unary operators so it round-trips through the
// parser with identical structure.
func PrintExpr(e Expr) string {
	switch e := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", e.Value)
	case *StringLit:
		return fmt.Sprintf("%q", e.Value)
	case *NullLit:
		return "null"
	case *Ident:
		return e.Name
	case *UnaryExpr:
		return fmt.Sprintf("%s(%s)", unaryOpText(e.Op), PrintExpr(e.X))
	case *BinaryExpr:
		return fmt.Sprintf("(%s %s %s)", PrintExpr(e.X), e.Op, PrintExpr(e.Y))
	case *CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = PrintExpr(a)
		}
		return fmt.Sprintf("%s(%s)", e.Fun.Name, strings.Join(args, ", "))
	case *IndexExpr:
		return fmt.Sprintf("%s[%s]", PrintExpr(e.X), PrintExpr(e.Index))
	case *FieldExpr:
		return fmt.Sprintf("%s->%s", PrintExpr(e.X), e.Name)
	default:
		return fmt.Sprintf("<?expr %T>", e)
	}
}

func unaryOpText(op token.Kind) string {
	switch op {
	case token.MINUS:
		return "-"
	case token.NOT:
		return "!"
	case token.STAR:
		return "*"
	case token.AMP:
		return "&"
	default:
		return op.String()
	}
}

// printStmt renders a statement (and its children) as indented MiniC source.
func printStmt(s Stmt, indent int) string {
	pad := strings.Repeat("  ", indent)
	switch s := s.(type) {
	case *BlockStmt:
		var b strings.Builder
		b.WriteString(pad + "{\n")
		for _, st := range s.List {
			b.WriteString(printStmt(st, indent+1))
		}
		b.WriteString(pad + "}\n")
		return b.String()
	case *DeclStmt:
		if s.Init != nil {
			return fmt.Sprintf("%s%s %s = %s;\n", pad, printType(s.Type), s.Name, PrintExpr(s.Init))
		}
		return fmt.Sprintf("%s%s %s;\n", pad, printType(s.Type), s.Name)
	case *ExprStmt:
		return fmt.Sprintf("%s%s;\n", pad, PrintExpr(s.X))
	case *AssignStmt:
		return fmt.Sprintf("%s%s = %s;\n", pad, PrintExpr(s.LHS), PrintExpr(s.RHS))
	case *IfStmt:
		out := fmt.Sprintf("%sif (%s)\n%s", pad, PrintExpr(s.Cond), printStmt(s.Then, indent+1))
		if s.Else != nil {
			out += fmt.Sprintf("%selse\n%s", pad, printStmt(s.Else, indent+1))
		}
		return out
	case *WhileStmt:
		return fmt.Sprintf("%swhile (%s)\n%s", pad, PrintExpr(s.Cond), printStmt(s.Body, indent+1))
	case *ForStmt:
		init, cond, post := "", "", ""
		if s.Init != nil {
			init = strings.TrimSuffix(strings.TrimSpace(printStmt(s.Init, 0)), ";")
		}
		if s.Cond != nil {
			cond = PrintExpr(s.Cond)
		}
		if s.Post != nil {
			post = strings.TrimSuffix(strings.TrimSpace(printStmt(s.Post, 0)), ";")
		}
		return fmt.Sprintf("%sfor (%s; %s; %s)\n%s", pad, init, cond, post, printStmt(s.Body, indent+1))
	case *ReturnStmt:
		if s.X != nil {
			return fmt.Sprintf("%sreturn %s;\n", pad, PrintExpr(s.X))
		}
		return pad + "return;\n"
	case *BreakStmt:
		return pad + "break;\n"
	case *ContinueStmt:
		return pad + "continue;\n"
	default:
		return fmt.Sprintf("%s<?stmt %T>\n", pad, s)
	}
}

// PrintFile renders a whole file as MiniC source.
func PrintFile(f *File) string {
	var b strings.Builder
	for _, sd := range f.Structs {
		fmt.Fprintf(&b, "struct %s {\n", sd.Name)
		for _, fld := range sd.Fields {
			fmt.Fprintf(&b, "  %s %s;\n", printType(fld.Type), fld.Name)
		}
		b.WriteString("};\n")
	}
	for _, g := range f.Globals {
		if g.Init != nil {
			fmt.Fprintf(&b, "global %s %s = %s;\n", printType(g.Type), g.Name, PrintExpr(g.Init))
		} else {
			fmt.Fprintf(&b, "global %s %s;\n", printType(g.Type), g.Name)
		}
	}
	for _, fn := range f.Funcs {
		params := make([]string, len(fn.Params))
		for i, p := range fn.Params {
			params[i] = fmt.Sprintf("%s %s", printType(p.Type), p.Name)
		}
		fmt.Fprintf(&b, "%s %s(%s)\n", printType(fn.RetType), fn.Name, strings.Join(params, ", "))
		b.WriteString(printStmt(fn.Body, 0))
	}
	return b.String()
}
