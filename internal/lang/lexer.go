package lang

import (
	"strconv"
	"strings"
)

// Lexer turns subscription source text into tokens. Newlines are
// significant (they terminate rules), so the lexer emits TokNewline for
// line breaks that follow a token.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
	// lastWasNewline suppresses duplicate newline tokens for blank lines.
	lastWasNewline bool
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, lastWasNewline: true}
}

func (l *Lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// scan lexes the next token into t, which it leaves in an unspecified state
// on error.
func (l *Lexer) scan(t *Token) error {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == '\n':
			line, col := l.line, l.col
			l.advance()
			if l.lastWasNewline {
				continue // collapse blank lines
			}
			l.lastWasNewline = true
			t.Kind, t.Text, t.Num, t.Line, t.Col = TokNewline, "", 0, line, col
			return nil
		case c == ' ' || c == '\t' || c == '\r':
			l.advance()
		case c == '#' || c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLineComment()
		default:
			if err := l.lexToken(t); err != nil {
				return err
			}
			l.lastWasNewline = false
			return nil
		}
	}
	t.Kind, t.Text, t.Num, t.Line, t.Col = TokEOF, "", 0, l.line, l.col
	return nil
}

func (l *Lexer) skipLineComment() {
	for {
		c, ok := l.peekByte()
		if !ok || c == '\n' {
			return
		}
		l.advance()
	}
}

func (l *Lexer) lexToken(t *Token) error {
	line, col := l.line, l.col
	start := l.pos
	c := l.advance()
	mk := func(k TokenKind) error {
		t.Kind, t.Text, t.Num, t.Line, t.Col = k, l.src[start:l.pos], 0, line, col
		return nil
	}
	switch c {
	case '(':
		return mk(TokLParen)
	case ')':
		return mk(TokRParen)
	case '[':
		return mk(TokLBracket)
	case ']':
		return mk(TokRBracket)
	case ',':
		return mk(TokComma)
	case ':':
		return mk(TokColon)
	case ';':
		return mk(TokSemicolon)
	case '!':
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
			return mk(TokNeq)
		}
		return mk(TokNot)
	case '&':
		if n, ok := l.peekByte(); ok && n == '&' {
			l.advance()
			return mk(TokAnd)
		}
		return errAt(line, col, "unexpected '&' (use '&&')")
	case '|':
		if n, ok := l.peekByte(); ok && n == '|' {
			l.advance()
			return mk(TokOr)
		}
		return errAt(line, col, "unexpected '|' (use '||')")
	case '=':
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
			return mk(TokEq)
		}
		return errAt(line, col, "unexpected '=' (use '==')")
	case '<':
		if n, ok := l.peekByte(); ok {
			switch n {
			case '=':
				l.advance()
				return mk(TokLe)
			case '-':
				l.advance()
				return mk(TokArrow)
			}
		}
		return mk(TokLt)
	case '>':
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
			return mk(TokGe)
		}
		return mk(TokGt)
	case '"', '\'':
		return l.lexString(t, c, line, col)
	}
	if c >= 0x80 {
		// Unicode operators ∧ ∨ (multi-byte); back up and decode.
		l.pos--
		l.col--
		rest := l.src[l.pos:]
		switch {
		case strings.HasPrefix(rest, "∧"):
			l.pos += len("∧")
			l.col++
			return mk(TokAnd)
		case strings.HasPrefix(rest, "∨"):
			l.pos += len("∨")
			l.col++
			return mk(TokOr)
		}
		return errAt(line, col, "unexpected character %q", l.src[l.pos:l.pos+1])
	}
	switch {
	case c >= '0' && c <= '9':
		return l.lexNumber(t, c, line, col)
	case isIdentStart(rune(c)):
		l.lexIdent(t, line, col)
		return nil
	}
	return errAt(line, col, "unexpected character %q", c)
}

func (l *Lexer) lexString(t *Token, quote byte, line, col int) error {
	var b strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok || c == '\n' {
			return errAt(line, col, "unterminated string literal")
		}
		l.advance()
		if c == quote {
			*t = Token{Kind: TokString, Text: b.String(), Line: line, Col: col}
			return nil
		}
		if c == '\\' {
			n, ok := l.peekByte()
			if !ok {
				return errAt(line, col, "unterminated escape in string literal")
			}
			l.advance()
			switch n {
			case '\\', '"', '\'':
				b.WriteByte(n)
			default:
				return errAt(line, col, "unknown escape \\%c", n)
			}
			continue
		}
		// Symbols name packet field contents (stock tickers, session
		// ids); those are printable ASCII on the wire, so the language
		// only admits printable ASCII literals.
		if c < 0x20 || c > 0x7e {
			return errAt(line, col, "non-printable byte 0x%02x in string literal", c)
		}
		b.WriteByte(c)
	}
}

// lexNumber lexes a numeric literal whose first digit has been consumed.
// A plain decimal of at most 18 digits — every number in a generated rule
// set — is a substring of the source with its value accumulated during the
// scan; hex, '_' separators, dotted quads and longer literals take the
// general path below.
func (l *Lexer) lexNumber(t *Token, first byte, line, col int) error {
	start, end, n := l.pos-1, l.pos, uint64(first-'0')
	for end < len(l.src) && l.src[end] >= '0' && l.src[end] <= '9' {
		n = n*10 + uint64(l.src[end]-'0')
		end++
	}
	general := end-start > 18
	if end < len(l.src) {
		switch c := l.src[end]; {
		case c == '_' || c == '.':
			general = true
		case (c == 'x' || c == 'X') && first == '0' && end == l.pos:
			general = true
		}
	}
	if !general {
		l.col += end - l.pos
		l.pos = end
		t.Kind, t.Text, t.Num, t.Line, t.Col = TokNumber, l.src[start:end], n, line, col
		return nil
	}
	var b strings.Builder
	b.WriteByte(first)
	base := 10
	if first == '0' {
		if c, ok := l.peekByte(); ok && (c == 'x' || c == 'X') {
			l.advance()
			b.Reset()
			base = 16
		}
	}
	for {
		c, ok := l.peekByte()
		if !ok {
			break
		}
		if isDigit(c, base) || c == '_' {
			l.advance()
			if c != '_' {
				b.WriteByte(c)
			}
			continue
		}
		// An IPv4 dotted quad like 192.168.0.1 lexes as a single number.
		if base == 10 && c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			return l.lexIPv4(t, b.String(), line, col)
		}
		break
	}
	text := b.String()
	if text == "" {
		return errAt(line, col, "malformed numeric literal")
	}
	n, err := strconv.ParseUint(text, base, 64)
	if err != nil {
		return errAt(line, col, "malformed numeric literal %q", text)
	}
	*t = Token{Kind: TokNumber, Text: text, Num: n, Line: line, Col: col}
	return nil
}

// lexIPv4 finishes lexing a dotted-quad IPv4 literal whose first octet has
// already been consumed. The token value is the 32-bit big-endian address.
func (l *Lexer) lexIPv4(t *Token, firstOctet string, line, col int) error {
	octets := []string{firstOctet}
	for len(octets) < 4 {
		c, ok := l.peekByte()
		if !ok || c != '.' {
			break
		}
		l.advance()
		var b strings.Builder
		for {
			c, ok := l.peekByte()
			if !ok || c < '0' || c > '9' {
				break
			}
			l.advance()
			b.WriteByte(c)
		}
		if b.Len() == 0 {
			return errAt(line, col, "malformed IPv4 literal")
		}
		octets = append(octets, b.String())
	}
	if len(octets) != 4 {
		return errAt(line, col, "malformed IPv4 literal")
	}
	var v uint64
	for _, o := range octets {
		n, err := strconv.ParseUint(o, 10, 8)
		if err != nil {
			return errAt(line, col, "IPv4 octet %q out of range", o)
		}
		v = v<<8 | n
	}
	text := strings.Join(octets, ".")
	*t = Token{Kind: TokNumber, Text: text, Num: v, Line: line, Col: col}
	return nil
}

func isIdentStart(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isDigit(c byte, base int) bool {
	if base == 16 {
		return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
	}
	return c >= '0' && c <= '9'
}

// lexIdent lexes an identifier or keyword whose first byte has been
// consumed. The token text is a substring of the source (identifiers hold
// no newline, so only the column moves), and the three keywords are
// matched without lowering a copy.
func (l *Lexer) lexIdent(t *Token, line, col int) {
	start := l.pos - 1
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if !isIdentStart(rune(c)) && (c < '0' || c > '9') && c != '.' {
			break
		}
		l.pos++
	}
	l.col += l.pos - start - 1
	text := l.src[start:l.pos]
	kind := TokIdent
	if len(text) <= 3 {
		switch {
		case strings.EqualFold(text, "and"):
			kind = TokAnd
		case strings.EqualFold(text, "or"):
			kind = TokOr
		case strings.EqualFold(text, "not"):
			kind = TokNot
		}
	}
	t.Kind, t.Text, t.Num, t.Line, t.Col = kind, text, 0, line, col
}
