package sema

import (
	"strings"
	"testing"

	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	f, err := parser.ParseFile("t.mc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(f)
}

func mustCheckOK(t *testing.T, src string) *Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return info
}

func wantErr(t *testing.T, src, frag string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected error containing %q, got none\nsource: %s", frag, src)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("expected error containing %q, got %v", frag, err)
	}
}

func TestCheckPbzip2LikeProgram(t *testing.T) {
	info := mustCheckOK(t, `
struct queue {
	int* mut;
	int size;
};
global struct queue* fifo;
void cons(int arg) {
	struct queue* f = fifo;
	unlock(f->mut);
}
int main() {
	fifo = malloc(sizeof(queue));
	fifo->mut = malloc(8);
	int t = spawn(cons, 0);
	free(fifo->mut);
	fifo->mut = null;
	join(t);
	return 0;
}`)
	if len(info.Globals) != 1 || info.Globals[0].Name != "fifo" {
		t.Errorf("globals: %+v", info.Globals)
	}
	if got := len(info.SpawnTargets); got != 1 {
		t.Fatalf("spawn targets: got %d, want 1", got)
	}
	for _, target := range info.SpawnTargets {
		if target != "cons" {
			t.Errorf("spawn target: got %s, want cons", target)
		}
	}
}

func TestStructLayout(t *testing.T) {
	info := mustCheckOK(t, `
struct item {
	int refcnt;
	int* data;
	struct item* next;
};
int main() { return sizeof(item); }`)
	si := info.Structs["item"]
	if si == nil {
		t.Fatal("struct item not found")
	}
	if si.size() != 24 {
		t.Errorf("size: got %d, want 24", si.size())
	}
	if f := si.Field("next"); f == nil || f.Offset != 16 {
		t.Errorf("field next: %+v", f)
	}
	if f := si.Field("refcnt"); f == nil || f.Offset != 0 || f.Type.Kind != KindInt {
		t.Errorf("field refcnt: %+v", f)
	}
	if si.Field("nope") != nil {
		t.Error("unexpected field nope")
	}
}

func TestSizeofFolding(t *testing.T) {
	info := mustCheckOK(t, `
struct pair { int a; int b; };
int main() { return sizeof(pair); }`)
	found := false
	for _, v := range info.ConstValues {
		if v == 16 {
			found = true
		}
	}
	if !found {
		t.Errorf("sizeof(pair) not folded to 16: %v", info.ConstValues)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"int main() { return y; }", "undefined variable y"},
		{"int main() { foo(); return 0; }", "undefined function foo"},
		{"int main() { int x = 0; int x = 1; return x; }", "redeclared"},
		{"struct s { int a; }; struct s { int b; }; int main() { return 0; }", "duplicate struct"},
		{"global int g; global int g; int main() { return 0; }", "duplicate global"},
		{"global int h = 1; global int g = h; int main() { return 0; }", "global initializer must be a constant"},
		{"int f() { return 0; }", "no main function"},
		{"int f() { return 0; } int f() { return 1; } int main() { return 0; }", "duplicate function"},
		{"void f() {} void f(int a) {} int main() { return 0; }", "duplicate function"}, // the duplicate has more parameters
		{"int main() { break; }", "break outside loop"},
		{"int main() { continue; }", "continue outside loop"},
		{"void main() { return 1; }", "unexpected return value"},
		{"int main() { return; }", "missing return value"},
		{"int main() { int* p = null; int x = p + p; return x; }", "invalid operands"},
		{"int main() { string s = \"x\"; int n = s * 2; return n; }", "requires ints"},
		{"int main() { 5 = 3; return 0; }", "cannot assign to"},
		{"int main() { int x = sizeof(nope); return x; }", "unknown struct"},
		{"int main() { int t = spawn(missing, 0); return t; }", "undefined function missing"},
		{"int f(int a, int b) { return a; } int main() { int t = spawn(f, 0); return t; }", "exactly one scalar"},
		{"int main() { int x = 1; int y = x->f; return y; }", "requires a struct pointer"},
		{"struct s { int a; }; int main() { struct s* p = malloc(sizeof(s)); return p->b; }", "no field b"},
		{"int main() { free(3); return 0; }", "requires a pointer"},
		{"int main() { int x = *5; return x; }", "cannot dereference"},
		{"int malloc(int n) { return n; } int main() { return 0; }", "shadows a builtin"},
		{"global struct s x; struct s { int a; }; int main() { return 0; }", "must be scalar or pointer"},
		{"int main(struct q v) { return 0; } struct q { int a; };", "must be scalar or pointer"},
	}
	for _, c := range cases {
		wantErr(t, c.src, c.frag)
	}
}

func TestPointerRules(t *testing.T) {
	mustCheckOK(t, `
int main() {
	int* p = malloc(16);
	p[0] = 5;
	p[1] = p[0] + 1;
	int* q = p + 1;
	int diff = q - p;
	int v = *p;
	*q = v;
	int* r = &v;
	if (p == null) { return 1; }
	if (p != q) { return 2; }
	return diff;
}`)
}

func TestStringRules(t *testing.T) {
	mustCheckOK(t, `
global string current;
int main() {
	string s = input_str(0);
	current = s;
	int n = strlen(current);
	int c = s[0];
	if (c == 123) { prints("left brace"); }
	return n;
}`)
}

func TestShadowingInNestedScopes(t *testing.T) {
	mustCheckOK(t, `
global int x = 1;
int main() {
	int x = 2;
	{
		int x = 3;
		print(x);
	}
	for (int x = 0; x < 2; x++) { print(x); }
	return x;
}`)
}

func TestExprTypesRecorded(t *testing.T) {
	info := mustCheckOK(t, `
struct q { int* mut; };
global struct q* g;
int main() {
	g = malloc(sizeof(q));
	int* m = g->mut;
	return 0;
}`)
	var sawFieldPtr bool
	for e, ty := range info.ExprTypes {
		if fe, ok := e.(*ast.FieldExpr); ok && fe.Name == "mut" {
			if ty.String() != "int*" {
				t.Errorf("g->mut type: got %s", ty)
			}
			sawFieldPtr = true
		}
	}
	if !sawFieldPtr {
		t.Error("no FieldExpr type recorded")
	}
}

func TestVariadicPrint(t *testing.T) {
	mustCheckOK(t, `int main() { print(1); print(1, 2, 3); return 0; }`)
	wantErr(t, `int main() { print(); return 0; }`, "at least 1")
}

func TestAssignabilityMatrix(t *testing.T) {
	intT := TypeInt
	strT := TypeString
	pInt := pointerTo(TypeInt)
	pp := pointerTo(pInt)
	cases := []struct {
		dst, src *Type
		want     bool
	}{
		{intT, intT, true},
		{intT, strT, false},
		{pInt, pInt, true},
		{pInt, anyPtr, true},
		{anyPtr, pInt, true},
		{anyPtr, strT, true},
		{pInt, pp, false},
		{strT, anyPtr, true},
		{strT, intT, false},
		{pp, pointerTo(pointerTo(TypeInt)), true},
	}
	for _, c := range cases {
		if got := assignable(c.dst, c.src); got != c.want {
			t.Errorf("assignable(%s, %s) = %v, want %v", c.dst, c.src, got, c.want)
		}
	}
}
