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
	// pendingNL suppresses duplicate newline tokens for blank lines.
	lastWasNewline bool
	started        bool
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

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	for {
		c, ok := l.peekByte()
		if !ok {
			return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
		}
		switch {
		case c == '\n':
			line, col := l.line, l.col
			l.advance()
			if l.lastWasNewline {
				continue // collapse blank lines
			}
			l.lastWasNewline = true
			return Token{Kind: TokNewline, Line: line, Col: col}, nil
		case c == ' ' || c == '\t' || c == '\r':
			l.advance()
		case c == '#':
			l.skipLineComment()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLineComment()
		default:
			tok, err := l.lexToken()
			if err != nil {
				return Token{}, err
			}
			l.lastWasNewline = false
			return tok, nil
		}
	}
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

func (l *Lexer) lexToken() (Token, error) {
	line, col := l.line, l.col
	c := l.advance()
	mk := func(k TokenKind, text string) Token {
		return Token{Kind: k, Text: text, Line: line, Col: col}
	}
	switch c {
	case '(':
		return mk(TokLParen, "("), nil
	case ')':
		return mk(TokRParen, ")"), nil
	case '[':
		return mk(TokLBracket, "["), nil
	case ']':
		return mk(TokRBracket, "]"), nil
	case ',':
		return mk(TokComma, ","), nil
	case ':':
		return mk(TokColon, ":"), nil
	case ';':
		return mk(TokSemicolon, ";"), nil
	case '!':
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
			return mk(TokNeq, "!="), nil
		}
		return mk(TokNot, "!"), nil
	case '&':
		if n, ok := l.peekByte(); ok && n == '&' {
			l.advance()
			return mk(TokAnd, "&&"), nil
		}
		return Token{}, errAt(line, col, "unexpected '&' (use '&&')")
	case '|':
		if n, ok := l.peekByte(); ok && n == '|' {
			l.advance()
			return mk(TokOr, "||"), nil
		}
		return Token{}, errAt(line, col, "unexpected '|' (use '||')")
	case '=':
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
			return mk(TokEq, "=="), nil
		}
		return Token{}, errAt(line, col, "unexpected '=' (use '==')")
	case '<':
		if n, ok := l.peekByte(); ok {
			switch n {
			case '=':
				l.advance()
				return mk(TokLe, "<="), nil
			case '-':
				l.advance()
				return mk(TokArrow, "<-"), nil
			}
		}
		return mk(TokLt, "<"), nil
	case '>':
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
			return mk(TokGe, ">="), nil
		}
		return mk(TokGt, ">"), nil
	case '"', '\'':
		return l.lexString(c, line, col)
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
			return Token{Kind: TokAnd, Text: "∧", Line: line, Col: col}, nil
		case strings.HasPrefix(rest, "∨"):
			l.pos += len("∨")
			l.col++
			return Token{Kind: TokOr, Text: "∨", Line: line, Col: col}, nil
		}
		return Token{}, errAt(line, col, "unexpected character %q", l.src[l.pos:l.pos+1])
	}
	switch {
	case c >= '0' && c <= '9':
		return l.lexNumber(c, line, col)
	case isIdentStart(rune(c)):
		return l.lexIdent(line, col), nil
	}
	return Token{}, errAt(line, col, "unexpected character %q", c)
}

func (l *Lexer) lexString(quote byte, line, col int) (Token, error) {
	var b strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok || c == '\n' {
			return Token{}, errAt(line, col, "unterminated string literal")
		}
		l.advance()
		if c == quote {
			return Token{Kind: TokString, Text: b.String(), Line: line, Col: col}, nil
		}
		if c == '\\' {
			n, ok := l.peekByte()
			if !ok {
				return Token{}, errAt(line, col, "unterminated escape in string literal")
			}
			l.advance()
			switch n {
			case '\\', '"', '\'':
				b.WriteByte(n)
			default:
				return Token{}, errAt(line, col, "unknown escape \\%c", n)
			}
			continue
		}
		// Symbols name packet field contents (stock tickers, session
		// ids); those are printable ASCII on the wire, so the language
		// only admits printable ASCII literals.
		if c < 0x20 || c > 0x7e {
			return Token{}, errAt(line, col, "non-printable byte 0x%02x in string literal", c)
		}
		b.WriteByte(c)
	}
}

// lexNumber lexes a numeric literal whose first digit has been consumed.
// A plain decimal of at most 18 digits — every number in a generated rule
// set — is a substring of the source with its value accumulated during the
// scan; hex, '_' separators, dotted quads and longer literals take the
// general path below.
func (l *Lexer) lexNumber(first byte, line, col int) (Token, error) {
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
		return Token{Kind: TokNumber, Text: l.src[start:end], Num: n, Line: line, Col: col}, nil
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
			return l.lexIPv4(b.String(), line, col)
		}
		break
	}
	text := b.String()
	if text == "" {
		return Token{}, errAt(line, col, "malformed numeric literal")
	}
	n, err := strconv.ParseUint(text, base, 64)
	if err != nil {
		return Token{}, errAt(line, col, "malformed numeric literal %q", text)
	}
	return Token{Kind: TokNumber, Text: text, Num: n, Line: line, Col: col}, nil
}

// lexIPv4 finishes lexing a dotted-quad IPv4 literal whose first octet has
// already been consumed. The token value is the 32-bit big-endian address.
func (l *Lexer) lexIPv4(firstOctet string, line, col int) (Token, error) {
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
			return Token{}, errAt(line, col, "malformed IPv4 literal")
		}
		octets = append(octets, b.String())
	}
	if len(octets) != 4 {
		return Token{}, errAt(line, col, "malformed IPv4 literal")
	}
	var v uint64
	for _, o := range octets {
		n, err := strconv.ParseUint(o, 10, 8)
		if err != nil {
			return Token{}, errAt(line, col, "IPv4 octet %q out of range", o)
		}
		v = v<<8 | n
	}
	text := strings.Join(octets, ".")
	return Token{Kind: TokNumber, Text: text, Num: v, Line: line, Col: col}, nil
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
func (l *Lexer) lexIdent(line, col int) Token {
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
	return Token{Kind: kind, Text: text, Line: line, Col: col}
}
