package ir

import (
	"strings"
	"testing"

	"repro/internal/lang/token"
)

const pbzipLike = `
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
}
`

func TestCompilePbzipLike(t *testing.T) {
	p, err := Compile("pbzip.mc", pbzipLike)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(p.Funcs) != 2 {
		t.Fatalf("funcs: got %d", len(p.Funcs))
	}
	if p.FuncByName["main"] == nil || p.FuncByName["cons"] == nil {
		t.Fatal("missing functions")
	}
	if len(p.Globals) != 1 || p.Globals[0].Name != "fifo" {
		t.Fatalf("globals: %+v", p.Globals)
	}
	if len(p.SpawnTargets) != 1 {
		t.Fatalf("spawn targets: %v", p.SpawnTargets)
	}
	for id, target := range p.SpawnTargets {
		if target != "cons" {
			t.Errorf("spawn target = %s", target)
		}
		if p.Instrs[id].Builtin != 0 && p.Instrs[id].Callee != "spawn" {
			t.Errorf("spawn target instr: %s", p.Instrs[id])
		}
	}
}

func TestEveryBlockHasTerminator(t *testing.T) {
	srcs := []string{
		pbzipLike,
		`int main() { if (1) { return 1; } else { return 2; } }`,
		`int main() { while (1) { break; } return 0; }`,
		`int main() { for (int i = 0; i < 3; i++) { if (i == 1) { continue; } print(i); } return 0; }`,
		`int main() { return 0; print(1); }`, // dead code after return
		`void main() { }`,
	}
	for _, src := range srcs {
		p, err := Compile("t.mc", src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				if b.Terminator() == nil {
					t.Errorf("source %q: %s bb%d lacks a terminator", src, f.Name, b.ID)
				}
				for i, in := range b.Instrs {
					if in.isTerminator() && i != len(b.Instrs)-1 {
						t.Errorf("source %q: %s bb%d has terminator mid-block", src, f.Name, b.ID)
					}
				}
			}
		}
	}
}

func TestInstrIDsDenseAndOrdered(t *testing.T) {
	p := MustCompile("t.mc", pbzipLike)
	for i, in := range p.Instrs {
		if in.ID != i {
			t.Fatalf("instr %d has ID %d", i, in.ID)
		}
		if in.Blk == nil || in.Blk.Instrs[in.Idx] != in {
			t.Fatalf("instr %d has wrong back-reference", i)
		}
	}
}

func TestPredsMatchSuccs(t *testing.T) {
	p := MustCompile("t.mc", `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) {
		if (i % 2 == 0 && i > 2) { s = s + i; }
	}
	return s;
}`)
	for _, f := range p.Funcs {
		// succ->pred consistency
		type edge struct{ from, to int }
		fwd := make(map[edge]bool)
		for _, b := range f.Blocks {
			for _, s := range b.Succs() {
				fwd[edge{b.ID, s.ID}] = true
			}
		}
		count := 0
		for _, b := range f.Blocks {
			for _, pr := range b.Preds {
				if !fwd[edge{pr.ID, b.ID}] {
					t.Errorf("pred edge bb%d->bb%d not in successor sets", pr.ID, b.ID)
				}
				count++
			}
		}
		if count != len(fwd) {
			// Preds may contain duplicates only if a Br has identical arms,
			// which the builder never produces.
			t.Errorf("edge count mismatch: %d preds vs %d succ edges", count, len(fwd))
		}
	}
}

func TestPointerArithmeticScaling(t *testing.T) {
	p := MustCompile("t.mc", `
int main() {
	int* p = malloc(32);
	int* q = p + 3;
	return q - p;
}`)
	// Expect a multiply by 8 feeding the + for q = p + 3.
	var sawScale bool
	for _, in := range p.Instrs {
		if in.Op == OpBin && in.BinOp == token.STAR && in.B.Kind == ValConst && in.B.Int == 8 {
			sawScale = true
		}
	}
	if !sawScale {
		t.Errorf("no pointer scaling multiply found:\n%s", p)
	}
}

func TestStringInterning(t *testing.T) {
	p := MustCompile("t.mc", `
int main() {
	prints("abc");
	prints("abc");
	prints("def");
	return 0;
}`)
	if len(p.Strings) != 2 {
		t.Errorf("string pool: %v", p.Strings)
	}
}

func TestShortCircuitBlocks(t *testing.T) {
	p := MustCompile("t.mc", `int main() { int a = 1; int b = 0; if (a && b) { return 1; } return 0; }`)
	f := p.FuncByName["main"]
	if len(f.Blocks) < 4 {
		t.Errorf("short-circuit should create extra blocks, got %d", len(f.Blocks))
	}
	// The && lowering must not unconditionally evaluate b: there must be a
	// branch whose taken/not-taken arms differ before b's load.
	var sawBr bool
	for _, in := range p.Instrs {
		if in.Op == OpBr {
			sawBr = true
		}
	}
	if !sawBr {
		t.Error("no branch emitted for &&")
	}
}

func TestGlobalInitializers(t *testing.T) {
	p := MustCompile("t.mc", `
global int a = 42;
global int b = -7;
global int* p = null;
global string s = "hi";
int main() { return a; }`)
	if p.Globals[0].Init != 42 || p.Globals[1].Init != -7 || p.Globals[2].Init != 0 {
		t.Errorf("global inits: %+v", p.Globals)
	}
	if p.Globals[3].InitStr < 0 || p.Strings[p.Globals[3].InitStr] != "hi" {
		t.Errorf("string init: %+v strings %v", p.Globals[3], p.Strings)
	}
}

func TestNonConstGlobalInitRejected(t *testing.T) {
	_, err := Compile("t.mc", `global int a = 1 + 2; int main() { return a; }`)
	if err == nil || !strings.Contains(err.Error(), "constant") {
		t.Errorf("expected constant-initializer error, got %v", err)
	}
}

func TestMissingMainRejected(t *testing.T) {
	_, err := Compile("t.mc", `int f() { return 1; }`)
	if err == nil || !strings.Contains(err.Error(), "no main") {
		t.Errorf("expected no-main error, got %v", err)
	}
}

func TestStringIndexByteAccess(t *testing.T) {
	p := MustCompile("t.mc", `
int main() {
	string s = "abc";
	int c = s[1];
	return c;
}`)
	var sawByteLoad bool
	for _, in := range p.Instrs {
		if in.Op == OpLoad && in.Size == 1 {
			sawByteLoad = true
		}
		if in.Op == OpIndexAddr && in.ElemSz != 1 {
			t.Errorf("string index elem size: %d", in.ElemSz)
		}
	}
	if !sawByteLoad {
		t.Error("no byte-sized load for string index")
	}
}

func TestFieldAddrOffsets(t *testing.T) {
	p := MustCompile("t.mc", `
struct item { int a; int b; int c; };
int main() {
	struct item* it = malloc(sizeof(item));
	it->c = 5;
	return it->c;
}`)
	offsets := map[int64]bool{}
	for _, in := range p.Instrs {
		if in.Op == OpFieldAddr {
			offsets[in.Offset] = true
		}
	}
	if !offsets[16] {
		t.Errorf("expected field offset 16 for ->c, got %v", offsets)
	}
}

func TestProgramStringRendering(t *testing.T) {
	p := MustCompile("t.mc", pbzipLike)
	out := p.String()
	for _, frag := range []string{"func main", "func cons", "callb spawn", "globaladdr g0", "ret"} {
		if !strings.Contains(out, frag) {
			t.Errorf("IR dump missing %q:\n%s", frag, out)
		}
	}
}
