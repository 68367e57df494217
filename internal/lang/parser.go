package lang

import (
	"fmt"
	"slices"
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
	firstID int  // ID of the first rule Rules parses: a run's origin in its source
	atom    Atom // the atom last parsed, which its sink copies
}

// NewParser returns a parser over src.
func NewParser(src string) *Parser {
	return &Parser{lex: NewLexer(src)}
}

// ParseRules parses src as a newline-separated list of subscription rules.
func ParseRules(src string) ([]Rule, error) {
	return NewParser(src).Rules()
}

// Line is a line of a rule source that holds a rule: src[Start:End], its
// newline included when it has one, is line Line of the source and holds
// the rule with ID ID.
type Line struct{ Start, End, Line, ID int }

// Lines cuts a rule source into the lines that hold a rule and calls each
// with them, in source order.
// A newline always ends a rule (Rules; the lexer refuses one inside a string
// literal), so a line holds a rule exactly when something other than blanks
// and a comment is on it — all the cutter reads — and each of its rules
// parses alone (ParseLines) as it does in the whole source.
func Lines(src string, each func(Line)) {
	line, id := 1, 0
	for pos := 0; pos < len(src); line++ {
		end := len(src)
		if nl := strings.IndexByte(src[pos:], '\n'); nl >= 0 {
			end = pos + nl + 1
		}
		if l := strings.TrimLeft(src[pos:end], " \t\r\n"); l != "" && l[0] != '#' && !strings.HasPrefix(l, "//") {
			each(Line{pos, end, line, id})
			id++
		}
		pos = end
	}
}

// ParseLines parses the lines of src from first to last, both Lines gave,
// as one run: the rules, positions and diagnostics are those ParseRules
// gives on the whole source, up to the first rule that fails, where
// ParseRules stops too. Runs share nothing and may be parsed concurrently.
func ParseLines(src string, first, last Line) ([]Rule, error) {
	return linesParser(src, first, last).Rules()
}

// linesParser is a parser over the lines of src from first to last.
func linesParser(src string, first, last Line) *Parser {
	p := NewParser(src[first.Start:last.End])
	p.lex.line, p.firstID = first.Line, first.ID
	return p
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

func (p *Parser) next() error { return p.lex.scan(&p.tok) }

// expect consumes a token of kind k, returning its text and position.
func (p *Parser) expect(k TokenKind) (string, Pos, error) {
	if p.tok.Kind != k {
		return "", Pos{}, errAt(p.tok.Line, p.tok.Col, "expected %v, found %v", k, p.tok)
	}
	text, pos := p.tok.Text, Pos{Line: p.tok.Line, Col: p.tok.Col}
	return text, pos, p.next()
}

// Rules parses the entire input as a rule set.
func (p *Parser) Rules() ([]Rule, error) {
	var rules []Rule
	g := grammar[Expr, tree]{p: p}
	err := p.rules(func(id int, pos Pos) error {
		cond, actions, _, err := g.rule(nil, nil)
		if err == nil {
			rules = append(rules, Rule{Cond: cond, Actions: actions, ID: id, Pos: pos})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rules, nil
}

// rules walks the input as a rule set, calling rule at each rule's first
// token with the rule's ID and position; rule parses the rule.
func (p *Parser) rules(rule func(id int, pos Pos) error) error {
	if err := p.next(); err != nil {
		return err
	}
	for id := p.firstID; ; id++ {
		for p.tok.Kind == TokNewline {
			if err := p.next(); err != nil {
				return err
			}
		}
		if p.tok.Kind == TokEOF {
			return nil
		}
		if err := rule(id, Pos{Line: p.tok.Line, Col: p.tok.Col}); err != nil {
			return err
		}
		switch p.tok.Kind {
		case TokNewline:
			if err := p.next(); err != nil {
				return err
			}
		case TokEOF:
			return nil
		default:
			return errAt(p.tok.Line, p.tok.Col, "expected newline after rule, found %v", p.tok)
		}
	}
}

// sink is what the grammar builds a condition into: its syntax tree (tree),
// or its disjunctive normal form (dnf). The grammar hands it the condition
// bottom-up, left to right, and says of each node whether an odd number of
// '!' encloses it (neg), which is how the normal form pushes negation down
// to the atoms as it goes.
type sink[T any] interface {
	atom(a *Atom, neg bool) T
	truth(neg bool) T
	join(and bool, l, r T, neg bool) T // l && r, or l || r
	not(x T) T
}

// tree is the sink that builds the syntax tree. Negation stays a Not node
// there, so it ignores polarity.
type tree struct{}

func (tree) atom(a *Atom, _ bool) Expr { return Cmp(*a) }
func (tree) truth(bool) Expr           { return True{} }
func (tree) not(x Expr) Expr           { return Not{X: x} }

func (tree) join(and bool, l, r Expr, _ bool) Expr {
	if and {
		return And{L: l, R: r}
	}
	return Or{L: l, R: r}
}

// grammar is the recursive descent of a rule, written once for every sink.
type grammar[T any, S sink[T]] struct {
	p *Parser
	s S
}

// rule parses cond ':' actions, appending the actions to acts and their
// ports to ports (Parser.actions).
func (g grammar[T, S]) rule(acts []Action, ports []int) (T, []Action, []int, error) {
	cond, err := g.or(false)
	if err != nil {
		return cond, nil, nil, err
	}
	if _, _, err := g.p.expect(TokColon); err != nil {
		return cond, nil, nil, err
	}
	acts, ports, err = g.p.actions(acts, ports)
	return cond, acts, ports, err
}

func (g grammar[T, S]) or(neg bool) (T, error) {
	l, err := g.and(neg)
	if err != nil {
		return l, err
	}
	for g.p.tok.Kind == TokOr {
		if err := g.p.next(); err != nil {
			return l, err
		}
		r, err := g.and(neg)
		if err != nil {
			return l, err
		}
		l = g.s.join(false, l, r, neg)
	}
	return l, nil
}

func (g grammar[T, S]) and(neg bool) (T, error) {
	l, err := g.unary(neg)
	if err != nil {
		return l, err
	}
	for g.p.tok.Kind == TokAnd {
		if err := g.p.next(); err != nil {
			return l, err
		}
		r, err := g.unary(neg)
		if err != nil {
			return l, err
		}
		l = g.s.join(true, l, r, neg)
	}
	return l, nil
}

func (g grammar[T, S]) unary(neg bool) (x T, err error) {
	p := g.p
	switch p.tok.Kind {
	case TokNot:
		if err = p.next(); err != nil {
			return x, err
		}
		x, err = g.unary(!neg)
		return g.s.not(x), err
	case TokLParen:
		if err = p.next(); err != nil {
			return x, err
		}
		if x, err = g.or(neg); err != nil {
			return x, err
		}
		_, _, err = p.expect(TokRParen)
		return x, err
	case TokIdent:
		if p.tok.Text == "true" {
			return g.s.truth(neg), p.next()
		}
		if err = p.parseAtom(); err != nil {
			return x, err
		}
		return g.s.atom(&p.atom, neg), nil
	}
	return x, errAt(p.tok.Line, p.tok.Col, "expected condition, found %v", p.tok)
}

// parseAtom parses an atom into p.atom.
func (p *Parser) parseAtom() error {
	a := &p.atom
	ident, pos, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	a.LHS, a.Pos = Operand{Field: ident}, pos
	if p.tok.Kind == TokLParen {
		// Aggregate macro: avg(price), count(...), ...
		if err := p.next(); err != nil {
			return err
		}
		field, _, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		if _, _, err := p.expect(TokRParen); err != nil {
			return err
		}
		a.LHS = Operand{Agg: ident, Field: field}
	}
	if p.tok.Kind == TokLBracket {
		// Keyed state: var[key] or agg(field)[key].
		key, err := p.key()
		if err != nil {
			return err
		}
		a.LHS.Key = key
	}
	switch p.tok.Kind {
	case TokEq:
		a.Op = OpEq
	case TokNeq:
		a.Op = OpNeq
	case TokLt:
		a.Op = OpLt
	case TokGt:
		a.Op = OpGt
	case TokLe:
		a.Op = OpLe
	case TokGe:
		a.Op = OpGe
	default:
		return errAt(p.tok.Line, p.tok.Col, "expected relational operator, found %v", p.tok)
	}
	if err := p.next(); err != nil {
		return err
	}
	a.RHS, err = p.parseValue()
	return err
}

// key parses '[' IDENT ']'.
func (p *Parser) key() (string, error) {
	if err := p.next(); err != nil {
		return "", err
	}
	key, _, err := p.expect(TokIdent)
	if err != nil {
		return "", err
	}
	_, _, err = p.expect(TokRBracket)
	return key, err
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

// actions parses a rule's action list, appending the actions to acts and a
// forward's ports, sorted, to ports: an action's Ports are its own part of
// ports, so a list parsed into nil buffers is the rule's alone.
func (p *Parser) actions(acts []Action, ports []int) ([]Action, []int, error) {
	for {
		acts = append(acts, Action{})
		var err error
		if ports, err = p.action(&acts[len(acts)-1], ports); err != nil {
			return nil, nil, err
		}
		if p.tok.Kind != TokSemicolon {
			return acts, ports, nil
		}
		if err := p.next(); err != nil {
			return nil, nil, err
		}
	}
}

// action parses an action into a.
func (p *Parser) action(a *Action, ports []int) ([]int, error) {
	ident, pos, err := p.expect(TokIdent)
	if err != nil {
		return ports, err
	}
	switch ident {
	case "fwd", "forward":
		start := len(ports)
		if ports, err = p.parsePortList(ports); err != nil {
			return ports, err
		}
		if len(ports) == start {
			return ports, errAt(pos.Line, pos.Col, "fwd() requires at least one port")
		}
		own := ports[start:len(ports):len(ports)]
		slices.Sort(own)
		*a = Action{Kind: ActFwd, Ports: own, Pos: pos}
		return ports, nil
	case "drop":
		if _, _, err := p.expect(TokLParen); err != nil {
			return ports, err
		}
		if _, _, err := p.expect(TokRParen); err != nil {
			return ports, err
		}
		*a = Action{Kind: ActDrop, Pos: pos}
		return ports, nil
	}
	// State update: var <- func(args), or keyed var[key] <- func(args).
	stateKey := ""
	if p.tok.Kind == TokLBracket {
		if stateKey, err = p.key(); err != nil {
			return ports, err
		}
	}
	if p.tok.Kind != TokArrow {
		return ports, errAt(p.tok.Line, p.tok.Col, "expected 'fwd', 'drop' or '<-' in action, found %v", p.tok)
	}
	if err := p.next(); err != nil {
		return ports, err
	}
	fn, _, err := p.expect(TokIdent)
	if err != nil {
		return ports, err
	}
	if _, _, err := p.expect(TokLParen); err != nil {
		return ports, err
	}
	var args []string
	for p.tok.Kind == TokIdent {
		args = append(args, p.tok.Text)
		if err := p.next(); err != nil {
			return ports, err
		}
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.next(); err != nil {
			return ports, err
		}
	}
	if _, _, err := p.expect(TokRParen); err != nil {
		return ports, err
	}
	*a = KeyedStateUpdate(ident, stateKey, fn, args...)
	a.Pos = pos
	return ports, nil
}

// parsePortList parses '(' NUMBER (',' NUMBER)* ')', appending the ports
// to ports.
func (p *Parser) parsePortList(ports []int) ([]int, error) {
	if _, _, err := p.expect(TokLParen); err != nil {
		return ports, err
	}
	for {
		n := p.tok.Num
		text, pos, err := p.expect(TokNumber)
		if err != nil {
			return ports, err
		}
		if n > uint64(MaxPort) {
			return ports, errAt(pos.Line, pos.Col, "port %s out of range (max %d)", text, MaxPort)
		}
		ports = append(ports, int(n))
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.next(); err != nil {
			return ports, err
		}
	}
	_, _, err := p.expect(TokRParen)
	return ports, err
}

// MaxPort bounds the port numbers accepted by fwd() actions, and so the
// ports a dataplane binds. Real switches have hundreds of ports; the
// generous bound mostly guards against typos.
const MaxPort = 1 << 16

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
