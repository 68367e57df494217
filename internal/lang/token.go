// Package lang implements the packet subscription language of Figure 1 in
// the paper: condition-action rules whose conditions are boolean
// combinations (∧, ∨, !) of relational atoms over packet header fields and
// state variables, and whose actions forward packets and update state.
//
// The package provides the lexer, recursive-descent parser, AST, and the
// disjunctive-normal-form rewriter that the compiler consumes.
package lang

import (
	"errors"
	"fmt"
)

// TokenKind enumerates lexical token types.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokLParen
	TokRParen
	TokLBracket
	TokRBracket
	TokComma
	TokColon
	TokSemicolon
	TokAnd   // && or ∧ or keyword "and"
	TokOr    // || or ∨ or keyword "or"
	TokNot   // ! or keyword "not"
	TokEq    // ==
	TokNeq   // !=
	TokLt    // <
	TokGt    // >
	TokLe    // <=
	TokGe    // >=
	TokArrow // <-
	TokNewline
)

var tokenNames = map[TokenKind]string{
	TokEOF: "end of input", TokIdent: "identifier", TokNumber: "number",
	TokString: "string", TokLParen: "'('", TokRParen: "')'",
	TokLBracket: "'['", TokRBracket: "']'",
	TokComma: "','", TokColon: "':'", TokSemicolon: "';'",
	TokAnd: "'&&'", TokOr: "'||'", TokNot: "'!'",
	TokEq: "'=='", TokNeq: "'!='", TokLt: "'<'", TokGt: "'>'",
	TokLe: "'<='", TokGe: "'>='", TokArrow: "'<-'", TokNewline: "newline",
}

func (k TokenKind) String() string {
	if s, ok := tokenNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Token is a lexical token with its source position. The Text of an
// identifier or a plain decimal number is a substring of the source, not
// a copy: whatever keeps it keeps the source text alive, so anything that
// outlives the parse copies the strings it takes (compiler.resolver does).
type Token struct {
	Kind TokenKind
	Text string
	Num  uint64 // valid when Kind == TokNumber
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Text != "" {
		return fmt.Sprintf("%v %q", t.Kind, t.Text)
	}
	return t.Kind.String()
}

// ErrSyntax is the sentinel all lexing/parsing failures match, so
// callers can classify without depending on the concrete type:
//
//	if errors.Is(err, lang.ErrSyntax) { ... }
//
// The position and message are still available through errors.As with a
// *SyntaxError target, even when the error has been wrapped.
var ErrSyntax = errors.New("syntax error")

// SyntaxError describes a lexing or parsing failure with position info.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Is makes errors.Is(err, ErrSyntax) hold for any syntax error.
func (e *SyntaxError) Is(target error) bool { return target == ErrSyntax }

// Position returns the error's source position.
func (e *SyntaxError) Position() Pos { return Pos{Line: e.Line, Col: e.Col} }

func errAt(line, col int, format string, args ...interface{}) error {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
