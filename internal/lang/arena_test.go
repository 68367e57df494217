package lang

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fig5c is n rule lines of Fig. 5c's shape, as the workload generator
// writes them.
func fig5c(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "(stock == S%03d && price > %d) : fwd(%d)\n", i*37%100, i*53%1000, i*11%200)
	}
	return b.String()
}

func linesOf(src string) []Line {
	var lines []Line
	Lines(src, func(l Line) { lines = append(lines, l) })
	return lines
}

// TestArenaAllocatesPerChunk holds the compile's text route to a constant
// number of allocations per chunk of 1,024 rules, not per rule: once an
// arena has held a chunk it parses the next straight to normal form in its
// own memory, allocating only the run's parser, and a new arena sizes its
// arrays once for the run.
func TestArenaAllocatesPerChunk(t *testing.T) {
	src := fig5c(1024)
	lines := linesOf(src)
	var a Arena
	chunk := func() {
		a.Reset()
		if err := a.ParseLines(src, lines[0], lines[len(lines)-1]); err != nil {
			t.Fatal(err)
		}
		if rules, err := a.Rules(); err != nil || len(rules) != len(lines) {
			t.Fatalf("%d rules, %v", len(rules), err)
		}
	}
	if warm := testing.AllocsPerRun(5, chunk); warm > 2 {
		t.Errorf("a chunk into a used arena allocates %.0f times, want at most 2", warm)
	}
	cold := testing.AllocsPerRun(5, func() {
		a = Arena{}
		chunk()
	})
	if cold > 16 { // 9, or 15 under the race detector
		t.Errorf("a chunk into a new arena allocates %.0f times, want at most 16", cold)
	}
}

// TestArenaMatchesTreeRoute holds the text route to the tree route on
// Fig. 5c lines: the same rules in normal form, and the arena route
// agreeing with NormalizeAll over ParseRules.
func TestArenaMatchesTreeRoute(t *testing.T) {
	src := fig5c(3000)
	checkArenaMatchesTree(t, src, 1024)
}

// checkArenaMatchesTree parses src's rule lines in runs of n, each run into
// an arena as a chunk of the compile is, and holds every run to
// NormalizeAll of ParseLines of the run — conjunctions, atom order, IDs,
// positions and the first error's text — and, when no run fails, the runs
// together to NormalizeAll of ParseRules of src.
func checkArenaMatchesTree(t *testing.T, src string, n int) {
	t.Helper()
	lines := linesOf(src)
	var a Arena
	var got []string // the arena's memory is reused by the next run
	for i := 0; i < len(lines); i += n {
		first, last := lines[i], lines[min(i+n, len(lines))-1]
		want, wantErr := ParseLines(src, first, last)
		var wantDNF []DNFRule
		if wantErr == nil {
			wantDNF, wantErr = NormalizeAll(want)
		}
		a.Reset()
		gotErr := a.ParseLines(src, first, last)
		var gotDNF []DNFRule
		if gotErr == nil {
			gotDNF, gotErr = a.Rules()
		}
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("lines %d–%d: tree route %v, text route %v", first.Line, last.Line, wantErr, gotErr)
			}
			return
		}
		if !reflect.DeepEqual(gotDNF, wantDNF) {
			t.Fatalf("lines %d–%d:\ntext route %+v\ntree route %+v", first.Line, last.Line, gotDNF, wantDNF)
		}
		for _, r := range gotDNF {
			got = append(got, fmt.Sprintf("%#v", r))
		}
	}
	rules, err := ParseRules(src)
	if err != nil {
		t.Fatalf("every run parses, the whole source fails: %v", err)
	}
	want, err := NormalizeAll(rules)
	if err != nil {
		t.Fatalf("every run normalizes, the whole source fails: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("text route %d rules, tree route %d", len(got), len(want))
	}
	for i, r := range want {
		if w := fmt.Sprintf("%#v", r); got[i] != w {
			t.Fatalf("rule %d:\ntext route %s\ntree route %s", i, got[i], w)
		}
	}
}

// BenchmarkArenaParseLines is the text route of one chunk of Fig. 5c
// lines, into a used arena.
func BenchmarkArenaParseLines(b *testing.B) {
	src := fig5c(1024)
	lines := linesOf(src)
	var a Arena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Reset()
		if err := a.ParseLines(src, lines[0], lines[len(lines)-1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/rule")
}

// BenchmarkParseRules is the tree route over the same lines: the syntax
// tree, then its normal form.
func BenchmarkParseRules(b *testing.B) {
	src := fig5c(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rules, err := ParseRules(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NormalizeAll(rules); err != nil {
			b.Fatal(err)
		}
	}
}
