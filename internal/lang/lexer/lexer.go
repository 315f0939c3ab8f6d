// Package lexer implements the hand-written scanner for MiniC source code.
//
// The scanner is line/column aware so that every IR instruction — and hence
// every statement appearing in a failure sketch — can be attributed to a
// precise source location, which is what developers read in the sketch.
package lexer

import (
	"fmt"
	"strings"

	"repro/internal/lang/token"
)

// Lexer scans MiniC source text into tokens.
type Lexer struct {
	file string
	src  string
	off  int // byte offset of the next unread character
	line int
	col  int
	errs token.ErrorList
}

// New returns a lexer for src. file is used in positions and diagnostics.
func New(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() token.ErrorList { return l.errs }

func (l *Lexer) errorf(pos token.Position, format string, args ...any) {
	l.errs = append(l.errs, &token.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Position {
	return token.Position{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for {
		switch c := l.peek(); {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.peek() != 0 {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next scans and returns the next token. At end of input it returns an EOF
// token; calling Next after EOF keeps returning EOF.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	c := l.peek()
	switch {
	case c == 0:
		return token.Token{Kind: token.EOF, Pos: pos}
	case isLetter(c):
		return l.scanIdent(pos)
	case isDigit(c):
		return l.scanNumber(pos)
	case c == '"':
		return l.scanString(pos)
	}
	l.advance()
	two := func(next byte, with, without token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: with, Pos: pos}
		}
		return token.Token{Kind: without, Pos: pos}
	}
	switch c {
	case '+':
		return two('+', token.PLUSPLUS, token.PLUS)
	case '-':
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.ARROW, Pos: pos}
		}
		return two('-', token.MINUSMIN, token.MINUS)
	case '*':
		return token.Token{Kind: token.STAR, Pos: pos}
	case '/':
		return token.Token{Kind: token.SLASH, Pos: pos}
	case '%':
		return token.Token{Kind: token.PERCENT, Pos: pos}
	case '&':
		return two('&', token.LAND, token.AMP)
	case '|':
		if l.peek() == '|' {
			l.advance()
			return token.Token{Kind: token.LOR, Pos: pos}
		}
		l.errorf(pos, "unexpected character %q (did you mean ||?)", '|')
		return token.Token{Kind: token.ILLEGAL, Lit: "|", Pos: pos}
	case '!':
		return two('=', token.NE, token.NOT)
	case '=':
		return two('=', token.EQ, token.ASSIGN)
	case '<':
		return two('=', token.LE, token.LT)
	case '>':
		return two('=', token.GE, token.GT)
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACK, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACK, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMI, Pos: pos}
	case '.':
		return token.Token{Kind: token.DOT, Pos: pos}
	}
	l.errorf(pos, "unexpected character %q", c)
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
}

func (l *Lexer) scanIdent(pos token.Position) token.Token {
	start := l.off
	for isLetter(l.peek()) || isDigit(l.peek()) {
		l.advance()
	}
	lit := l.src[start:l.off]
	return token.Token{Kind: token.LookupIdent(lit), Lit: lit, Pos: pos}
}

func (l *Lexer) scanNumber(pos token.Position) token.Token {
	start := l.off
	for isDigit(l.peek()) {
		l.advance()
	}
	if isLetter(l.peek()) {
		bad := l.pos()
		for isLetter(l.peek()) || isDigit(l.peek()) {
			l.advance()
		}
		l.errorf(bad, "identifier immediately after number literal")
	}
	return token.Token{Kind: token.INT, Lit: l.src[start:l.off], Pos: pos}
}

func (l *Lexer) scanString(pos token.Position) token.Token {
	l.advance() // opening quote
	var b strings.Builder
	for {
		c := l.peek()
		switch c {
		case 0, '\n':
			l.errorf(pos, "unterminated string literal")
			return token.Token{Kind: token.STRING, Lit: b.String(), Pos: pos}
		case '"':
			l.advance()
			return token.Token{Kind: token.STRING, Lit: b.String(), Pos: pos}
		case '\\':
			l.advance()
			esc := l.advance()
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case '0':
				b.WriteByte(0)
			default:
				l.errorf(pos, "unknown escape \\%c", esc)
				b.WriteByte(esc)
			}
		default:
			l.advance()
			b.WriteByte(c)
		}
	}
}
