package ir_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/ir"
	"repro/internal/lang/token"
)

// FuzzCompile feeds arbitrary source text to the MiniC front end — the
// lexer, parser and type checker — and the IR builder behind it. None
// may panic. A source that compiles gives well-formed IR (see
// checkWellFormed); one that does not is refused with a token.ErrorList
// whose every position lies inside that source. The seed corpus is the
// 12 suite programs, each whole and cut short at a few points, and
// short-circuit and arithmetic expressions over three locals.
func FuzzCompile(f *testing.F) {
	for _, b := range bugs.All() {
		src := b.Source
		for _, cut := range []int{len(src), len(src) / 2, len(src) / 3, 2 * len(src) / 3} {
			f.Add(src[:cut])
		}
	}
	for _, e := range []string{
		"a + b * c", "a && (b || c)", "!(a - b)", "-(a % (b + 1))",
		"a == b", "(a < b) != (b >= c)", "a && b && c", "a || b || c",
	} {
		f.Add("int main() { int a = 1; int b = 2; int c = 3; int r = " + e + "; return r; }")
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ir.Compile("f.mc", src)
		if err == nil {
			if p == nil {
				t.Fatal("no program and no error")
			}
			checkWellFormed(t, p)
			return
		}
		var list token.ErrorList
		if !errors.As(err, &list) || len(list) == 0 {
			t.Fatalf("error %q (%T) is not a token.ErrorList", err, err)
		}
		lines := strings.Split(src, "\n")
		for _, e := range list {
			if p := e.Pos; p.File != "f.mc" || p.Line < 1 || p.Line > len(lines) || p.Col < 1 || p.Col > len(lines[p.Line-1])+1 {
				t.Fatalf("error %q lies outside the %d-line source", e, len(lines))
			}
		}
	})
}

// TestNextCtl: in each of the 12 suite programs, every instruction's
// NextCtl is the first control transfer at or after it in its block.
func TestNextCtl(t *testing.T) {
	for _, b := range bugs.All() {
		checkNextCtl(t, b.Program())
	}
}

// checkNextCtl requires every instruction's NextCtl to name a br, jmp,
// call or ret of its own block, at or after it, with no control
// transfer in between.
func checkNextCtl(t *testing.T, p *ir.Program) {
	t.Helper()
	isCtl := func(in *ir.Instr) bool {
		return in.Op == ir.OpBr || in.Op == ir.OpJmp || in.Op == ir.OpCall || in.Op == ir.OpRet
	}
	for _, in := range p.Instrs {
		if in.NextCtl < in.ID || in.NextCtl >= len(p.Instrs) {
			t.Fatalf("%s: %%%d has NextCtl %d", p.Name, in.ID, in.NextCtl)
		}
		ctl := p.Instrs[in.NextCtl]
		if ctl.Blk != in.Blk || !isCtl(ctl) {
			t.Fatalf("%s: %%%d has NextCtl %%%d (%v), not a control transfer of its block", p.Name, in.ID, ctl.ID, ctl.Op)
		}
		for _, mid := range p.Instrs[in.ID:ctl.ID] {
			if isCtl(mid) {
				t.Fatalf("%s: %%%d has NextCtl %%%d past the control transfer %%%d", p.Name, in.ID, ctl.ID, mid.ID)
			}
		}
	}
}

// checkWellFormed requires every block to end in a terminator, every
// register operand and destination to lie below the function's NumRegs,
// every frame slot below its Slots (which holds at least the
// parameters), every global index below len(Globals), and each
// instruction's NextCtl to be its block's next control transfer.
func checkWellFormed(t *testing.T, p *ir.Program) {
	t.Helper()
	for _, fn := range p.Funcs {
		if fn.Params > fn.Slots {
			t.Fatalf("%s: %d params but %d slots", fn.Name, fn.Params, fn.Slots)
		}
		for _, b := range fn.Blocks {
			if b.Terminator() == nil {
				t.Fatalf("%s bb%d lacks a terminator", fn.Name, b.ID)
			}
			for _, in := range b.Instrs {
				for _, v := range append([]ir.Value{in.A, in.B}, in.Args...) {
					if v.Kind == ir.ValReg && (v.Reg < 0 || v.Reg >= fn.NumRegs) {
						t.Fatalf("%s: %s reads r%d of %d registers", fn.Name, in, v.Reg, fn.NumRegs)
					}
				}
				if in.Dst >= fn.NumRegs {
					t.Fatalf("%s: %s writes r%d of %d registers", fn.Name, in, in.Dst, fn.NumRegs)
				}
				if in.Op == ir.OpLocalAddr && (in.Slot < 0 || in.Slot >= fn.Slots) {
					t.Fatalf("%s: %s addresses a slot outside its %d", fn.Name, in, fn.Slots)
				}
				if in.Op == ir.OpGlobalAddr && (in.Global < 0 || in.Global >= len(p.Globals)) {
					t.Fatalf("%s: %s addresses a global outside the %d", fn.Name, in, len(p.Globals))
				}
			}
		}
	}
	checkNextCtl(t, p)
}
