package lexer

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lang/token"
)

func kindsOf(src string) []token.Kind {
	toks, _ := scanAll("test.mc", src)
	kinds := make([]token.Kind, len(toks))
	for i, t := range toks {
		kinds[i] = t.Kind
	}
	return kinds
}

func TestScanOperators(t *testing.T) {
	src := "+ - * / % & ! && || == != < <= > >= = -> ( ) { } [ ] , ; . ++ --"
	want := []token.Kind{
		token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.AMP, token.NOT, token.LAND, token.LOR,
		token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE,
		token.ASSIGN, token.ARROW,
		token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.LBRACK, token.RBRACK, token.COMMA, token.SEMI, token.DOT,
		token.PLUSPLUS, token.MINUSMIN,
		token.EOF,
	}
	got := kindsOf(src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestScanKeywordsAndIdents(t *testing.T) {
	toks, errs := scanAll("t.mc", "int x while whilex _foo f00 struct null global")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := []struct {
		kind token.Kind
		lit  string
	}{
		{token.KwInt, "int"}, {token.IDENT, "x"}, {token.KwWhile, "while"},
		{token.IDENT, "whilex"}, {token.IDENT, "_foo"}, {token.IDENT, "f00"},
		{token.KwStruct, "struct"}, {token.KwNull, "null"}, {token.KwGlobal, "global"},
		{token.EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Lit != w.lit {
			t.Errorf("token %d: got (%s,%q), want (%s,%q)", i, toks[i].Kind, toks[i].Lit, w.kind, w.lit)
		}
	}
}

func TestScanNumbersAndStrings(t *testing.T) {
	toks, errs := scanAll("t.mc", `42 0 "hello" "a\nb" "{}{"`)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if toks[0].Kind != token.INT || toks[0].Lit != "42" {
		t.Errorf("got %v", toks[0])
	}
	if toks[2].Kind != token.STRING || toks[2].Lit != "hello" {
		t.Errorf("got %v", toks[2])
	}
	if toks[3].Lit != "a\nb" {
		t.Errorf("escape: got %q", toks[3].Lit)
	}
	if toks[4].Lit != "{}{" {
		t.Errorf("braces: got %q", toks[4].Lit)
	}
}

func TestScanComments(t *testing.T) {
	src := "a // line comment\n b /* block\ncomment */ c"
	toks, errs := scanAll("t.mc", src)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	var lits []string
	for _, tk := range toks {
		if tk.Kind == token.IDENT {
			lits = append(lits, tk.Lit)
		}
	}
	if strings.Join(lits, " ") != "a b c" {
		t.Errorf("got idents %v", lits)
	}
}

func TestScanPositions(t *testing.T) {
	toks, _ := scanAll("t.mc", "a\n  b\nc")
	type pos struct{ line, col int }
	want := []pos{{1, 1}, {2, 3}, {3, 1}}
	for i, w := range want {
		if toks[i].Pos.Line != w.line || toks[i].Pos.Col != w.col {
			t.Errorf("token %d: got %d:%d, want %d:%d", i, toks[i].Pos.Line, toks[i].Pos.Col, w.line, w.col)
		}
	}
}

func TestScanErrors(t *testing.T) {
	cases := []string{"\"unterminated", "/* unterminated", "@", "|", "123abc"}
	for _, src := range cases {
		_, errs := scanAll("t.mc", src)
		if len(errs) == 0 {
			t.Errorf("source %q: expected a lexical error", src)
		}
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("t.mc", "x")
	l.Next()
	for i := 0; i < 3; i++ {
		if tk := l.Next(); tk.Kind != token.EOF {
			t.Fatalf("call %d after end: got %s, want EOF", i, tk.Kind)
		}
	}
}

// Property: scanning never panics and always terminates with EOF, for
// arbitrary byte strings.
func TestScanArbitraryInputTerminates(t *testing.T) {
	f := func(src string) bool {
		toks, _ := scanAll("t.mc", src)
		return len(toks) > 0 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: integer literals round-trip: scanning the decimal rendering of
// a non-negative number yields a single INT token with identical text.
func TestIntLiteralRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		src := strings.TrimLeft(string([]byte(fmtUint(uint64(n)))), " ")
		toks, errs := scanAll("t.mc", src)
		return len(errs) == 0 && len(toks) == 2 && toks[0].Kind == token.INT && toks[0].Lit == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fmtUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// scanAll scans the whole input the way the parser does, token by token,
// and returns all tokens up to and including the EOF token.
func scanAll(file, src string) ([]token.Token, token.ErrorList) {
	l := New(file, src)
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, l.Errors()
		}
	}
}
