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
// may panic, and a source that does not compile is refused with a
// token.ErrorList whose every position lies inside that source. The seed
// corpus is the 12 suite programs, each whole and cut short at a few
// points.
func FuzzCompile(f *testing.F) {
	for _, b := range bugs.All() {
		src := b.Source
		for _, cut := range []int{len(src), len(src) / 2, len(src) / 3, 2 * len(src) / 3} {
			f.Add(src[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ir.Compile("f.mc", src)
		if err == nil {
			if p == nil {
				t.Fatal("no program and no error")
			}
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
