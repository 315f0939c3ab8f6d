package parser

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lang/ast"
	"repro/internal/lang/token"
)

const sample = `
struct queue {
	int* mut;
	int size;
};

global struct queue* fifo;
global int done = 0;

void cons(int arg) {
	struct queue* f = fifo;
	lock(f->mut);
	unlock(f->mut);
}

int main() {
	fifo = malloc(sizeof(queue));
	int t = spawn(cons, 0);
	free(fifo->mut);
	fifo->mut = null;
	join(t);
	return 0;
}
`

func TestParseSample(t *testing.T) {
	f, err := ParseFile("sample.mc", sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Structs) != 1 || f.Structs[0].Name != "queue" || len(f.Structs[0].Fields) != 2 {
		t.Errorf("structs: %+v", f.Structs)
	}
	if len(f.Globals) != 2 || f.Globals[0].Name != "fifo" || f.Globals[1].Init == nil {
		t.Errorf("globals: %+v", f.Globals)
	}
	if len(f.Funcs) != 2 || f.Funcs[0].Name != "cons" || f.Funcs[1].Name != "main" {
		t.Errorf("funcs: %+v", f.Funcs)
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := ParseFile("t.mc", "int main() { int x = 1 + 2 * 3 == 7 && 1 || 0; return x; }")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	decl := f.Funcs[0].Body.List[0].(*ast.DeclStmt)
	got := ast.PrintExpr(decl.Init)
	want := "(((1 + (2 * 3)) == 7) && 1) || 0"
	// Normalize the fully parenthesized printer output.
	if got != "((((1 + (2 * 3)) == 7) && 1) || 0)" {
		t.Errorf("precedence tree: got %s, want structure %s", got, want)
	}
}

func TestParsePostfixChains(t *testing.T) {
	f, err := ParseFile("t.mc", "int main() { int v = obj->next->vals[i+1]; return v; }")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	decl := f.Funcs[0].Body.List[0].(*ast.DeclStmt)
	if got := ast.PrintExpr(decl.Init); got != "obj->next->vals[(i + 1)]" {
		t.Errorf("got %s", got)
	}
}

func TestParseIncDecDesugar(t *testing.T) {
	f, err := ParseFile("t.mc", "int main() { int i = 0; i++; i--; return i; }")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	inc := f.Funcs[0].Body.List[1].(*ast.AssignStmt)
	if got := ast.PrintExpr(inc.RHS); got != "(i + 1)" {
		t.Errorf("i++ desugar: got %s", got)
	}
	dec := f.Funcs[0].Body.List[2].(*ast.AssignStmt)
	if got := ast.PrintExpr(dec.RHS); got != "(i - 1)" {
		t.Errorf("i-- desugar: got %s", got)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
int main() {
	for (int i = 0; i < 10; i++) {
		if (i % 2 == 0) { continue; } else { print(i); }
		while (i > 5) { break; }
	}
	return 0;
}`
	if _, err := ParseFile("t.mc", src); err != nil {
		t.Fatalf("parse: %v", err)
	}
}

func TestParseForWithEmptyClauses(t *testing.T) {
	f, err := ParseFile("t.mc", "int main() { for (;;) { break; } return 0; }")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fs := f.Funcs[0].Body.List[0].(*ast.ForStmt)
	if fs.Init != nil || fs.Cond != nil || fs.Post != nil {
		t.Errorf("empty for clauses should be nil: %+v", fs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int main() { return 0 }",  // missing semicolon
		"int main() { 1 +; }",      // bad expression
		"int main( { }",            // bad params
		"struct S { int x }",       // missing field semicolon
		"int main() { if 1 { } }",  // missing parens
		"int main() { x = ; }",     // missing RHS
		"blah",                     // not a declaration
		"x; }",                     // stray brace at top level
		"int main() { (1+2)(3); }", // call of non-name
		"global int;",              // missing name
		"int f(int a,, int b) { }", // bad param list
	}
	for _, src := range cases {
		if _, err := ParseFile("t.mc", src); err == nil {
			t.Errorf("source %q: expected syntax error", src)
		}
	}
}

func TestParseErrorsAreNotFatal(t *testing.T) {
	// The parser must recover and still produce a partial AST.
	f, err := ParseFile("t.mc", "int main() { @ ; return 0; } int g() { return 1; }")
	if err == nil {
		t.Fatal("expected error")
	}
	if f == nil || len(f.Funcs) != 2 {
		t.Fatalf("expected partial AST with 2 funcs, got %+v", f)
	}
}

func TestStructTypeUseVsDecl(t *testing.T) {
	src := `
struct node { struct node* next; };
struct node* head(struct node* n) { return n->next; }
int main() { return 0; }
`
	f, err := ParseFile("t.mc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.Structs) != 1 || len(f.Funcs) != 2 {
		t.Fatalf("got %d structs, %d funcs", len(f.Structs), len(f.Funcs))
	}
}

// Property: the printer output of a parsed file re-parses without errors
// (print/parse fixpoint on the sample corpus plus generated variants).
func TestPrintParseFixpoint(t *testing.T) {
	srcs := []string{sample,
		"int main() { string s = \"{}{\"; int n = strlen(s); return n; }",
		"global int x = 5;\nint main() { x = x * -2; return !x; }",
	}
	for _, src := range srcs {
		f1, err := ParseFile("t.mc", src)
		if err != nil {
			t.Fatalf("parse 1: %v", err)
		}
		printed := ast.PrintFile(f1)
		f2, err := ParseFile("t.mc", printed)
		if err != nil {
			t.Fatalf("parse 2 of printed output: %v\n%s", err, printed)
		}
		if ast.PrintFile(f2) != printed {
			t.Errorf("printer not a fixpoint:\n--- first\n%s\n--- second\n%s", printed, ast.PrintFile(f2))
		}
	}
}

// Property: parsing arbitrary strings never panics.
func TestParseArbitraryInputNoPanic(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", src, r)
			}
		}()
		ParseFile("t.mc", src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: well-formed identifier assignment statements parse into
// AssignStmt nodes for arbitrary identifier names.
func TestParseAssignProperty(t *testing.T) {
	f := func(raw string) bool {
		name := sanitizeIdent(raw)
		src := "int main() { int " + name + " = 0; " + name + " = 1; return " + name + "; }"
		file, err := ParseFile("t.mc", src)
		if err != nil {
			return false
		}
		_, ok := file.Funcs[0].Body.List[1].(*ast.AssignStmt)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeIdent(s string) string {
	var b strings.Builder
	b.WriteByte('v')
	for _, r := range s {
		if r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9') {
			b.WriteRune(r)
		}
		if b.Len() > 12 {
			break
		}
	}
	name := b.String()
	if token.LookupIdent(name) != token.IDENT {
		name += "x"
	}
	return name
}
