package lang

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRules checks the parser never panics and that anything it
// accepts round-trips through String() to an equivalent parse.
func FuzzParseRules(f *testing.F) {
	seeds := []string{
		"stock == GOOGL : fwd(1)",
		"ip.dst == 192.168.0.1 : fwd(1)",
		"stock == GOOGL && avg(price) > 50 : fwd(1)",
		"a == 1 || b < 2 && !(c > 3) : fwd(1,2,3); v <- count()",
		"true : drop()",
		"price >= 0x1f : fwd(2)\n# comment\nx != 7 : fwd(3)",
		"s == \"BRK.A\" : fwd(1)",
		"a == 1 ∧ b == 2 ∨ c == 3 : fwd(4)",
		": fwd(1)",
		"stock == GOOGL : fwd(",
		strings.Repeat("(", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rules, err := ParseRules(src)
		if err != nil {
			return
		}
		for _, r := range rules {
			re, err := ParseRule(r.String())
			if err != nil {
				t.Fatalf("accepted rule %q does not re-parse: %v", r.String(), err)
			}
			if re.String() != r.String() {
				t.Fatalf("round trip unstable: %q -> %q", r.String(), re.String())
			}
			// DNF must not panic on anything parseable (it may reject
			// with an error on blowup).
			if _, err := ToDNF(r); err != nil && !strings.Contains(err.Error(), "DNF terms") {
				t.Fatalf("ToDNF(%q): %v", r.String(), err)
			}
		}
	})
}

// FuzzStreamedParse holds the chunk reader to the whole parse: for any bytes
// and any chunk size, parsing the chunks in order gives the rules ParseRules
// gives — IDs, positions, text — or fails with the error ParseRules fails
// with.
func FuzzStreamedParse(f *testing.F) {
	seeds := []string{
		"a == 1 : fwd(1)\nb == 2 : fwd(2)\nc == 3 : fwd(3)\nd == 4 : fwd(4)\ne == 5 : fwd(5)",
		"a == 1 : fwd(1)\r\n\r\n# note\r\n  // note\r\nb == 2 : fwd(2)\r\n",
		"\n\n  \t\na == 1 : fwd(1)\n\n",
		"a == 1 : fwd(1)\nb == \"x\ny\" : fwd(2)\n",
		"a == 1 : fwd(1)\nb == 2 &&\nc == 3 : fwd(3)\n",
		"a == 1 : fwd(1) b == 2 : fwd(2)\nc = 3 : fwd(3)",
		"a == 1 : fwd(1)\n/ /\n",
		"rate[k] <- count()\ntrue : rate[k] <- count()\navg(px)[k] > 5 : fwd(1)",
		"price >= 0x1f : fwd(2)\n# comment\nx != 7 : fwd(3)",
		"a == 1 ∧ b == 2 ∨ c == 3 : fwd(4)\n\x00",
	}
	for _, s := range seeds {
		for n := 1; n <= 4; n++ {
			f.Add(s, n)
		}
	}
	f.Fuzz(func(t *testing.T, src string, n int) {
		if n < 1 || n > 4 {
			return
		}
		want, wantErr := ParseRules(src)
		var got []Rule
		var gotErr error
		for _, p := range Chunks(src, n) {
			rules, err := p.Rules()
			if err != nil {
				gotErr = err
				break
			}
			if len(rules) == 0 || len(rules) > n {
				t.Fatalf("a chunk of %d rules, want 1..%d", len(rules), n)
			}
			got = append(got, rules...)
		}
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("whole parse: %v\nchunked:     %v", wantErr, gotErr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%d rules chunked, %d whole", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) { // IDs and every position included
				t.Fatalf("rule %d: chunked %d@%v %q, whole %d@%v %q", i,
					got[i].ID, got[i].Pos, got[i], want[i].ID, want[i].Pos, want[i])
			}
		}
	})
}
