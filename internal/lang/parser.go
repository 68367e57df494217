package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser for subscription rule sets.
//
// Grammar (terminals in caps):
//
//	rules   := (rule (NEWLINE | EOF))*
//	rule    := cond ':' actions
//	cond    := orExpr
//	orExpr  := andExpr ('||' andExpr)*
//	andExpr := unary ('&&' unary)*
//	unary   := '!' unary | '(' cond ')' | atom | 'true'
//	atom    := operand CMPOP value
//	operand := IDENT key? | IDENT '(' IDENT ')' key?
//	key     := '[' IDENT ']'
//	value   := NUMBER | STRING | IDENT
//	actions := action (';' action)*
//	action  := 'fwd' '(' ports ')' | 'drop' '(' ')' | IDENT key? '<-' IDENT '(' args ')'
//
// The optional key suffix addresses stateful operands per flow key: a
// keyed state read (src_count[pkt.src]), a keyed aggregate
// (avg(temp)[sensor_id]), or a keyed update (hits[pkt.src] <- count()).
type Parser struct {
	lex     *Lexer
	tok     Token
	firstID int // ID of the first rule Rules parses: a chunk's origin in its source
}

// NewParser returns a parser over src.
func NewParser(src string) *Parser {
	return &Parser{lex: NewLexer(src)}
}

// ParseRules parses src as a newline-separated list of subscription rules.
func ParseRules(src string) ([]Rule, error) {
	return NewParser(src).Rules()
}

// Chunks cuts a rule source into parsers over consecutive runs of whole
// lines holding at most n rules each, in source order. A newline always ends
// a rule (Rules; the lexer refuses one inside a string literal), so a cut
// after one separates rules and nothing else, and a line holds a rule exactly
// when something other than blanks and a comment is on it — all the cutter
// reads. Every parser starts at its chunk's line and rule ID, so the rules,
// positions and diagnostics of its Rules are those of ParseRules on the
// whole source, up to the first chunk that fails, where ParseRules stops
// too. The parsers share nothing and may run concurrently.
func Chunks(src string, n int) []*Parser {
	var out []*Parser
	start, line, id := 0, 1, 0 // of the chunk being cut
	lines, rules := 0, 0       // in it so far
	for pos := 0; pos < len(src); {
		end := len(src)
		if nl := strings.IndexByte(src[pos:], '\n'); nl >= 0 {
			end, lines = pos+nl+1, lines+1
		}
		if l := strings.TrimLeft(src[pos:end], " \t\r\n"); l != "" && l[0] != '#' && !strings.HasPrefix(l, "//") {
			rules++
		}
		if pos = end; rules == n || (pos == len(src) && rules > 0) {
			p := NewParser(src[start:pos])
			p.lex.line, p.firstID = line, id
			out = append(out, p)
			start, line, id, lines, rules = pos, line+lines, id+rules, 0, 0
		}
	}
	return out
}

// ParseRule parses a single subscription rule.
func ParseRule(src string) (Rule, error) {
	rules, err := ParseRules(src)
	if err != nil {
		return Rule{}, err
	}
	if len(rules) != 1 {
		return Rule{}, fmt.Errorf("expected exactly one rule, got %d", len(rules))
	}
	return rules[0], nil
}

// ParseCondition parses a bare condition expression (no action part).
func ParseCondition(src string) (Expr, error) {
	p := NewParser(src)
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokNewline {
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind != TokEOF {
		return nil, errAt(p.tok.Line, p.tok.Col, "unexpected %v after condition", p.tok)
	}
	return e, nil
}

func (p *Parser) next() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) expect(k TokenKind) (Token, error) {
	if p.tok.Kind != k {
		return Token{}, errAt(p.tok.Line, p.tok.Col, "expected %v, found %v", k, p.tok)
	}
	t := p.tok
	err := p.next()
	return t, err
}

// Rules parses the entire input as a rule set.
func (p *Parser) Rules() ([]Rule, error) {
	if err := p.next(); err != nil {
		return nil, err
	}
	var rules []Rule
	for {
		for p.tok.Kind == TokNewline {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if p.tok.Kind == TokEOF {
			return rules, nil
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		r.ID = p.firstID + len(rules)
		rules = append(rules, r)
		switch p.tok.Kind {
		case TokNewline:
			if err := p.next(); err != nil {
				return nil, err
			}
		case TokEOF:
			return rules, nil
		default:
			return nil, errAt(p.tok.Line, p.tok.Col, "expected newline after rule, found %v", p.tok)
		}
	}
}

func (p *Parser) parseRule() (Rule, error) {
	pos := Pos{Line: p.tok.Line, Col: p.tok.Col}
	cond, err := p.parseOr()
	if err != nil {
		return Rule{}, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return Rule{}, err
	}
	actions, err := p.parseActions()
	if err != nil {
		return Rule{}, err
	}
	return Rule{Cond: cond, Actions: actions, Pos: pos}, nil
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOr {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or{L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokAnd {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.tok.Kind {
	case TokNot:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{X: x}, nil
	case TokLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		if p.tok.Text == "true" {
			if err := p.next(); err != nil {
				return nil, err
			}
			return True{}, nil
		}
		return p.parseAtom()
	default:
		return nil, errAt(p.tok.Line, p.tok.Col, "expected condition, found %v", p.tok)
	}
}

func (p *Parser) parseAtom() (Expr, error) {
	ident, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	operand := Operand{Field: ident.Text}
	if p.tok.Kind == TokLParen {
		// Aggregate macro: avg(price), count(...), ...
		if err := p.next(); err != nil {
			return nil, err
		}
		field, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		operand = Operand{Agg: ident.Text, Field: field.Text}
	}
	if p.tok.Kind == TokLBracket {
		// Keyed state: var[key] or agg(field)[key].
		if err := p.next(); err != nil {
			return nil, err
		}
		key, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		operand.Key = key.Text
	}
	var op CmpOp
	switch p.tok.Kind {
	case TokEq:
		op = OpEq
	case TokNeq:
		op = OpNeq
	case TokLt:
		op = OpLt
	case TokGt:
		op = OpGt
	case TokLe:
		op = OpLe
	case TokGe:
		op = OpGe
	default:
		return nil, errAt(p.tok.Line, p.tok.Col, "expected relational operator, found %v", p.tok)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	val, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	return Cmp{LHS: operand, Op: op, RHS: val, Pos: Pos{Line: ident.Line, Col: ident.Col}}, nil
}

func (p *Parser) parseValue() (Value, error) {
	switch p.tok.Kind {
	case TokNumber:
		v := Number(p.tok.Num)
		return v, p.next()
	case TokString:
		v := Symbol(p.tok.Text)
		return v, p.next()
	case TokIdent:
		// A bareword in value position is a symbolic constant (GOOGL).
		v := Symbol(p.tok.Text)
		return v, p.next()
	default:
		return Value{}, errAt(p.tok.Line, p.tok.Col, "expected value, found %v", p.tok)
	}
}

func (p *Parser) parseActions() ([]Action, error) {
	var actions []Action
	for {
		a, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		actions = append(actions, a)
		if p.tok.Kind != TokSemicolon {
			return actions, nil
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
}

func (p *Parser) parseAction() (Action, error) {
	ident, err := p.expect(TokIdent)
	if err != nil {
		return Action{}, err
	}
	pos := Pos{Line: ident.Line, Col: ident.Col}
	switch ident.Text {
	case "fwd", "forward":
		ports, err := p.parsePortList()
		if err != nil {
			return Action{}, err
		}
		if len(ports) == 0 {
			return Action{}, errAt(ident.Line, ident.Col, "fwd() requires at least one port")
		}
		a := Fwd(ports...)
		a.Pos = pos
		return a, nil
	case "drop":
		if _, err := p.expect(TokLParen); err != nil {
			return Action{}, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return Action{}, err
		}
		a := Drop()
		a.Pos = pos
		return a, nil
	}
	// State update: var <- func(args), or keyed var[key] <- func(args).
	stateKey := ""
	if p.tok.Kind == TokLBracket {
		if err := p.next(); err != nil {
			return Action{}, err
		}
		key, err := p.expect(TokIdent)
		if err != nil {
			return Action{}, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return Action{}, err
		}
		stateKey = key.Text
	}
	if p.tok.Kind != TokArrow {
		return Action{}, errAt(p.tok.Line, p.tok.Col, "expected 'fwd', 'drop' or '<-' in action, found %v", p.tok)
	}
	if err := p.next(); err != nil {
		return Action{}, err
	}
	fn, err := p.expect(TokIdent)
	if err != nil {
		return Action{}, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return Action{}, err
	}
	var args []string
	for p.tok.Kind == TokIdent {
		args = append(args, p.tok.Text)
		if err := p.next(); err != nil {
			return Action{}, err
		}
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.next(); err != nil {
			return Action{}, err
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return Action{}, err
	}
	a := StateUpdate(ident.Text, fn.Text, args...)
	a.StateKey = stateKey
	a.Pos = pos
	return a, nil
}

func (p *Parser) parsePortList() ([]int, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var ports []int
	for {
		t, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		if t.Num > uint64(maxPort) {
			return nil, errAt(t.Line, t.Col, "port %s out of range (max %d)", t.Text, maxPort)
		}
		ports = append(ports, int(t.Num))
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return ports, nil
}

// maxPort bounds the port numbers accepted by fwd() actions. Real switches
// have hundreds of ports; the generous bound mostly guards against typos.
const maxPort = 1 << 16

// FormatPorts renders a port list the way the language prints it.
func FormatPorts(ports []int) string {
	b := make([]byte, 0, len(ports)*4)
	for i, p := range ports {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return string(b)
}
