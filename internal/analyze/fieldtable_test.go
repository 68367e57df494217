package analyze

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
)

// The analyzer is an observer of the compiler's one resolver. This property
// holds the two to the agreement that is for, over random rule sets salted
// with everything the resolver rejects: every rule the resolver rejects has
// an error-severity CAM004, and the program of the pass is the compile of
// exactly the rules the analyzer kept, including when a rule it dropped had
// made a synthetic field.

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

func TestAnalyzerAndCompilerShareOneFieldTable(t *testing.T) {
	sp := spec.MustParse(ftSpecSrc)
	queryFields := len(sp.OrderedQueries())
	rng := rand.New(rand.NewSource(18))
	clean, rejected, droppedField := 0, 0, 0
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

		// The pass, watching for a dropped rule that made a synthetic field.
		a := newAnalysis(sp, Options{})
		fields, dropped := queryFields, false
		pass, err := compiler.Observe(context.Background(), sp, compiler.Source{Rules: rules}, compiler.Options{}, func(res *compiler.Resolved) bool {
			keep := a.checkRule(res)
			if keep {
				fields = len(res.Fields)
			} else if len(res.Fields) > fields {
				dropped = true
			}
			return keep
		})
		if err != nil {
			t.Fatalf("the pass kept a rule the resolver rejects: %v\n%s", err, src)
		}
		typeErrors := map[int]bool{} // rule index -> has an error-severity CAM004
		for _, d := range a.diags {
			if d.Code == CodeType && d.Severity == SevError {
				typeErrors[d.Rule] = true
			}
		}

		// Every rule the resolver rejects has an error CAM004.
		for i, r := range rules {
			if _, _, rerr := compiler.ResolveConjs(sp, []lang.Rule{r}, compiler.Options{}); rerr != nil {
				rejected++
				if !typeErrors[i] {
					t.Fatalf("the resolver rejects rule %d (%v), the analyzer has no CAM004 error on it\n%s", i, rerr, src)
				}
			}
		}

		// The pass's program is the compile of the rules it kept.
		kept := make([]lang.Rule, len(a.infos))
		for i, info := range a.infos {
			kept[i] = rules[info.index]
		}
		got, gerr := pass.Compile()
		wantPass, werr := compiler.Observe(context.Background(), sp, compiler.Source{Rules: kept}, compiler.Options{}, nil)
		var want *compiler.Program
		if werr == nil {
			want, werr = wantPass.Compile()
		}
		if gerr != nil || werr != nil {
			t.Fatalf("kept rules do not compile: pass %v, compile %v\n%s", gerr, werr, src)
		}
		if got.Dump() != want.Dump() {
			t.Fatalf("the pass's program differs from the compile of the %d rules it kept\n%s", len(kept), src)
		}
		for k := 0; k < 8; k++ { // payload IDs too: what Trace names as the rules matched
			values := make([]uint64, len(got.Fields))
			for f := range values {
				values[f] = uint64(rng.Intn(300))
			}
			if g, w := pass.Trace(values).MatchedRules, wantPass.Trace(values).MatchedRules; !slices.Equal(g, w) {
				t.Fatalf("at %v the pass's program matches payloads %v, the compile %v\n%s", values, g, w, src)
			}
		}
		if len(typeErrors) == 0 {
			clean++
		}
		if dropped {
			droppedField++
		}
	}
	// The generator has to reach every side for the property to mean anything.
	t.Logf("%d sets clean, %d rules rejected by the resolver, %d sets where a dropped rule made a field",
		clean, rejected, droppedField)
	if clean < 40 || rejected < 40 || droppedField < 10 {
		t.Fatalf("generator is lopsided: %d sets clean, %d rules rejected by the resolver, %d sets where a dropped rule made a field",
			clean, rejected, droppedField)
	}
}
