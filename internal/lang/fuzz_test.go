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

// FuzzStreamedParse holds the line cutter to the whole parse: for any bytes
// and any run length, parsing the rule lines in runs of that many, in
// order, gives the rules ParseRules gives — IDs, positions, text — or fails
// with the error ParseRules fails with; and up to that failure each line
// parsed alone gives its rule.
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
		var lines []Line
		Lines(src, func(l Line) { lines = append(lines, l) })
		var got []Rule
		var gotErr error
		for i := 0; i < len(lines); i += n {
			run := lines[i:min(i+n, len(lines))]
			rules, err := ParseLines(src, run[0], run[len(run)-1])
			if err != nil {
				gotErr = err
				break
			}
			if len(rules) != len(run) {
				t.Fatalf("a run of %d lines parses to %d rules", len(run), len(rules))
			}
			for j, l := range run {
				alone, err := ParseLines(src, l, l)
				if err != nil || !reflect.DeepEqual(alone, rules[j:j+1]) {
					t.Fatalf("line %d alone: %v %v, in its run %v", l.Line, alone, err, rules[j])
				}
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

// FuzzArenaMatchesTree holds the compile's text route to the tree route: for
// any bytes and any run length, each run of that many rule lines parsed
// straight to normal form in an arena gives what NormalizeAll gives over
// ParseLines of the run — conjunctions, atom order, IDs, positions — or
// fails with its first error's text, and the runs together give
// NormalizeAll over ParseRules of the whole source. The runs share one
// arena, reset between them, as a compile's chunks do.
func FuzzArenaMatchesTree(f *testing.F) {
	seeds := []string{
		"(stock == S081 && price > 260) : fwd(48)\n(stock == S059 && price > 510) : fwd(119, 3)",
		"a == 1 || b < 2 && !(c > 3) : fwd(3,1,2); v[k] <- count(a, b)",
		"!(a == 1 || b == 2) && (c == 1 || !(d == 2 && e == 3)) : drop()",
		"(a == 1 || a == 1) && (b == 2 || b == 2) : fwd(1)\na == 1 && a == 2 : fwd(2)\na == 1 && a != 1 : fwd(3)",
		"true : drop()\n!true : fwd(1)\n!!true && x == \"y z\" : fwd(2)",
		"avg(px)[k] > 5 && px == 0x1f || ip == 10.0.0.1 : fwd(1)\nb = 2 : fwd(2)",
		"a == 1 : fwd(1)\n# note\n\n  // note\nb == 2 : fwd(70000)\n",
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
		checkArenaMatchesTree(t, src, n)
	})
}
