package analyze

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
)

// The analyzer and the compiler resolve operands through one field table
// (compiler.FieldTable). This property holds the two to the agreement that
// sharing is for, over random rule sets salted with everything the
// resolver rejects: a set the analyzer gives no error-severity CAM004
// compiles, and when the compiler's resolver rejects a rule, the analyzer
// has an error-severity CAM004 on that same rule.

const ftSpecSrc = `
header_type order_t {
    fields {
        shares: 32;
        stock: 64;
        price: 32;
        side: 8;
    }
}
header order_t order;

@query_field(order.shares)
@query_field(order.price)
@query_field(order.side)
@query_field_exact(order.stock)
@query_counter(ctr, 100)
@query_register(reg, 16)
`

// ftOperand draws a predicate's left-hand side: mostly resolvable, with
// every kind of operand the field table refuses mixed in.
func ftOperand(rng *rand.Rand) string {
	good := []string{
		"shares", "price", "side", "order.price", "stock",
		"ctr", "reg", "ctr[stock]", "reg[side]",
		"avg(price)", "sum(shares)", "max(price)[stock]", "avg(ctr)", "count(ctr)[order.side]",
	}
	bad := []string{
		"volume",             // not a query field
		"median(price)",      // unknown aggregate
		"avg(volume)",        // aggregate over nothing known
		"price[stock]",       // key on a non-state field
		"ctr[volume]",        // key that is no query field
		"avg(price)[volume]", // the same under an aggregate
	}
	if rng.Intn(30) == 0 {
		return bad[rng.Intn(len(bad))]
	}
	return good[rng.Intn(len(good))]
}

func ftAtom(rng *rand.Rand) string {
	lhs := ftOperand(rng)
	ops := []string{"==", "==", "==", "!=", "<", ">", "<=", ">="}
	op := ops[rng.Intn(len(ops))]
	var rhs string
	switch rng.Intn(12) {
	case 0:
		rhs = []string{"GOOGL", "MSFT", "TOOLONGASYMBOL"}[rng.Intn(3)]
	case 1:
		rhs = strconv.FormatUint(1<<40+uint64(rng.Intn(9)), 10) // past every narrow field
	default:
		rhs = strconv.Itoa(rng.Intn(300))
	}
	atom := fmt.Sprintf("%s %s %s", lhs, op, rhs)
	if rng.Intn(10) == 0 {
		atom = "!(" + atom + ")"
	}
	return atom
}

func ftRule(rng *rand.Rand) string {
	conjs := make([]string, 1+rng.Intn(2))
	for i := range conjs {
		atoms := make([]string, 1+rng.Intn(3))
		for j := range atoms {
			atoms[j] = ftAtom(rng)
		}
		conjs[i] = strings.Join(atoms, " && ")
	}
	actions := []string{fmt.Sprintf("fwd(%d)", 1+rng.Intn(4))}
	switch rng.Intn(16) {
	case 0, 1:
		actions = append(actions, "ctr[stock] <- count()")
	case 2:
		actions = append(actions, "ctr[volume] <- count()") // bad key
	case 3:
		actions = append(actions, "reg <- sample(price)")
	}
	return strings.Join(conjs, " || ") + " : " + strings.Join(actions, "; ")
}

var ftRuleInError = regexp.MustCompile(`rule (\d+): `)

func TestAnalyzerAndCompilerShareOneFieldTable(t *testing.T) {
	sp := spec.MustParse(ftSpecSrc)
	rng := rand.New(rand.NewSource(18))
	passed, rejected := 0, 0
	for iter := 0; iter < 400; iter++ {
		lines := make([]string, 1+rng.Intn(5))
		for i := range lines {
			lines[i] = ftRule(rng)
		}
		src := strings.Join(lines, "\n")
		rules, err := lang.ParseRules(src)
		if err != nil {
			t.Fatalf("generator produced unparsable rules: %v\n%s", err, src)
		}

		typeErrors := map[int]bool{} // rule index -> has an error-severity CAM004
		for _, d := range Rules(sp, rules, Options{SkipResources: true}).ByCode(CodeType) {
			if d.Severity == SevError {
				typeErrors[d.Rule] = true
			}
		}
		_, cerr := compiler.Compile(sp, rules, compiler.Options{})

		if len(typeErrors) == 0 {
			passed++
			if cerr != nil {
				t.Fatalf("analyzer found no CAM004 error, compiler rejects: %v\n%s", cerr, src)
			}
			continue
		}
		if cerr == nil {
			continue // the analyzer is stricter (range predicate on an exact field compiles away here)
		}
		m := ftRuleInError.FindStringSubmatch(cerr.Error())
		if m == nil {
			continue // rejected after the resolver (exact field with induced ranges)
		}
		rejected++
		id, _ := strconv.Atoi(m[1])
		index := -1
		for i, r := range rules {
			if r.ID == id {
				index = i
			}
		}
		if !typeErrors[index] {
			t.Fatalf("compiler's resolver rejects rule %d (%v), analyzer has no CAM004 error on it (has %v)\n%s", id, cerr, typeErrors, src)
		}
	}
	// The generator has to reach both sides for the property to mean anything.
	t.Logf("%d sets passed the analyzer and compiled, %d were rejected by the resolver", passed, rejected)
	if passed < 40 || rejected < 40 {
		t.Fatalf("generator is lopsided: %d sets passed the analyzer, %d were rejected by the resolver", passed, rejected)
	}
}
