package compiler_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

func statefulSpec(t testing.TB) *spec.Spec {
	t.Helper()
	sp, err := spec.Parse(goldenStatefulSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.SetFieldOrder("stock", "price", "shares"); err != nil {
		t.Fatal(err)
	}
	return sp
}

// fig5cLines renders n Fig. 5c rules, one per line, unterminated.
func fig5cLines(n int, seed int64) []string {
	rules := workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: n, Stocks: 100, Hosts: 16, PriceMax: 1000, PriceGrid: 10, Seed: seed,
	})
	lines := make([]string, n)
	for i, r := range rules {
		lines[i] = r.String()
	}
	return lines
}

// seamSource is n Fig. 5c rules with everything a cut can land on placed at
// every chunk boundary: the rule before it ends in CRLF and reads keyed state
// no earlier rule has (so its synthetic field is made as the chunk ends), the
// rule after it reads another (made as the next chunk begins), and between
// them sit a blank line and both kinds of comment line.
func seamSource(n int, trailingNewline bool) string {
	lines := fig5cLines(n, int64(n))
	lines[0] = "true : rate[add_order.stock] <- count(); px[add_order.stock] <- sample(add_order.price)"
	var b strings.Builder
	for i, l := range lines {
		switch {
		case (i+1)%compiler.ChunkRules == 0 && i+1 < n:
			fmt.Fprintf(&b, "rate[add_order.stock] >= %d : fwd(1)\r\n\r\n# a cut falls here\n  // and leaves these to the next chunk\n", 8+i%3)
			continue
		case i > 0 && i%compiler.ChunkRules == 0:
			l = fmt.Sprintf("avg(px)[add_order.stock] > %d && sum(px)[add_order.stock] > 5 : fwd(2)", 500+i%3)
		}
		b.WriteString(l)
		if i+1 < n || trailingNewline {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestStreamedEqualsWhole: compiling a source chunk by chunk, on any number
// of workers, gives the program that parsing all of it and compiling the
// rules gives, and the chunk parsers give the whole parse's rules — on every
// golden corpus case and on sources whose sizes straddle the chunk size.
func TestStreamedEqualsWhole(t *testing.T) {
	type source struct {
		name string
		sp   *spec.Spec
		src  string
	}
	var sources []source
	for _, c := range goldenCases(t) {
		if c.rules == nil {
			continue
		}
		var b strings.Builder
		for _, r := range c.rules {
			b.WriteString(r.String() + "\n")
		}
		sources = append(sources, source{c.name, c.sp, b.String()})
	}
	chunk := compiler.ChunkRules
	for _, n := range []int{chunk - 1, chunk, chunk + 1, 3*chunk + 7} {
		for _, nl := range []bool{true, false} {
			sources = append(sources, source{fmt.Sprintf("seams-%d-newline=%v", n, nl), statefulSpec(t), seamSource(n, nl)})
		}
	}
	for _, s := range sources {
		s := s
		t.Run(s.name, func(t *testing.T) {
			rules, err := lang.ParseRules(s.src)
			if err != nil {
				t.Fatal(err)
			}
			var lines []lang.Line
			lang.Lines(s.src, func(l lang.Line) { lines = append(lines, l) })
			var chunked []lang.Rule
			for i := 0; i < len(lines); i += chunk {
				part, err := lang.ParseLines(s.src, lines[i], lines[min(i+chunk, len(lines))-1])
				if err != nil {
					t.Fatal(err)
				}
				chunked = append(chunked, part...)
			}
			if !reflect.DeepEqual(chunked, rules) {
				t.Fatal("the chunks' rules, IDs or positions are not the whole parse's")
			}
			whole, err := compiled(compiler.Observe(context.Background(), s.sp, compiler.Source{Rules: rules}, compiler.Options{Workers: 1}, nil))
			if err != nil {
				t.Fatal(err)
			}
			want := programDigest(whole)
			for _, workers := range []int{1, 2, 4} {
				pass, err := compiled(compiler.Observe(context.Background(), s.sp, compiler.Source{Text: s.src}, compiler.Options{Workers: workers}, nil))
				if err != nil {
					t.Fatal(err)
				}
				if got := programDigest(pass); got != want {
					t.Errorf("workers=%d: streamed digest %s, whole %s\n%s\n%s", workers, got, want, pass.Program().Stats, whole.Program().Stats)
				}
			}
			sess := compiler.NewSession(s.sp, compiler.Options{Workers: 2})
			if err := sess.Sync(context.Background(), compiler.Source{Text: s.src}); err != nil {
				t.Fatal(err)
			}
			if pass, err := sess.RecompilePass(); err != nil || programDigest(pass) != want {
				t.Errorf("session from source: err %v, digest differs %v", err, err == nil)
			}
		})
	}
}

// wholeError is the error of the path that parses a whole source and then
// compiles the rules.
func wholeError(sp *spec.Spec, src string) error {
	rules, err := lang.ParseRules(src)
	if err == nil {
		_, err = compiler.Compile(sp, rules, compiler.Options{Workers: 1})
	}
	return err
}

// TestStreamedErrorsAreTheWholeParsesErrors: an error past the first chunk
// reads, byte for byte, as the whole parse reports it — line:col and rule
// number counted from the top of the source — and of two errors the one in
// the earlier chunk is returned however the workers are scheduled.
func TestStreamedErrorsAreTheWholeParsesErrors(t *testing.T) {
	sp := workload.ITCHSpec()
	chunk := compiler.ChunkRules
	bad := map[string]string{
		"syntax":              "stock == GOOGL price > 5 : fwd(1)",
		"unterminated string": "stock == \"GOO : fwd(1)",
		"unknown field":       "stock == GOOGL && nosuch > 5 : fwd(1)",
	}
	with := func(at map[int]string) string {
		lines := fig5cLines(2*chunk+7, 3)
		for i, l := range at {
			lines[i] = l
		}
		return "# header\n\n" + strings.Join(lines, "\n")
	}
	for name, line := range bad {
		src := with(map[int]string{chunk + 10: line})
		want := wholeError(sp, src)
		if want == nil {
			t.Fatalf("%s: the whole parse accepts %q", name, line)
		}
		for _, workers := range []int{1, 2, 4} {
			if _, err := compiler.CompileSource(sp, src, compiler.Options{Workers: workers}); err == nil || err.Error() != want.Error() {
				t.Errorf("%s, workers=%d:\n streamed: %v\n whole:    %v", name, workers, err, want)
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, pair := range [][2]string{{"unknown field", "syntax"}, {"syntax", "unknown field"}} {
		first := map[int]string{5: bad[pair[0]]}
		want := wholeError(sp, with(first))
		first[2*chunk+5] = bad[pair[1]]
		src := with(first)
		for run := 0; run < 200; run++ {
			if _, err := compiler.CompileSource(sp, src, compiler.Options{Workers: 4}); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s before %s, run %d:\n got  %v\n want %v", pair[0], pair[1], run, err, want)
			}
		}
	}
}

// TestCompileSourceStopsWhenContextIsDone: a done context ends a compile
// from source, cold or a session's sync, at the next chunk with the
// context's error.
func TestCompileSourceStopsWhenContextIsDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := strings.Join(fig5cLines(10, 1), "\n")
	if _, err := compiler.Observe(ctx, workload.ITCHSpec(), compiler.Source{Text: src}, compiler.Options{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold: err = %v, want context.Canceled", err)
	}
	sess := compiler.NewSession(workload.ITCHSpec(), compiler.Options{})
	if err := sess.Sync(ctx, compiler.Source{Text: src}); !errors.Is(err, context.Canceled) || sess.Len() != 0 {
		t.Fatalf("session: err = %v, %d rules live, want context.Canceled and none", err, sess.Len())
	}
}

// TestProgramRetainsOneAtomPerPredicate: what a Pass and a Session keep of
// their rules' predicates is one atom per distinct (operand, operator,
// constant), shared by every conjunction that uses it — not one per use —
// and none of its strings is a piece of the source text, which tokens are:
// neither, nor the program's state updates, may pin the text it was
// compiled from. The program keeps no predicate at all.
func TestProgramRetainsOneAtomPerPredicate(t *testing.T) {
	itch := func(n, hosts int, grid uint64) string {
		var b strings.Builder
		for _, r := range workload.ITCHSubscriptions(workload.ITCHSubsConfig{
			Subscriptions: n, Stocks: 100, Hosts: hosts, PriceMax: 1000, PriceGrid: grid, Seed: 1,
		}) {
			b.WriteString(r.String() + "\n")
		}
		return b.String()
	}
	for _, c := range []struct {
		name   string
		sp     *spec.Spec
		src    string
		atMost int
	}{
		{"20k×200/grid-10", workload.ITCHSpec(), itch(20000, 200, 10), 200},
		{"10k×2/grid-1", workload.ITCHSpec(), itch(10000, 2, 1), 1100},
		{"keyed state", statefulSpec(t), seamSource(2*compiler.ChunkRules+3, true), 1 << 30},
	} {
		rules, err := lang.ParseRules(c.src)
		if err != nil {
			t.Fatal(err)
		}
		dnf, err := lang.NormalizeAll(rules)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[lang.Atom]bool{}
		uses := 0
		for _, r := range dnf {
			for _, cj := range r.Conjunctions {
				for _, a := range cj {
					a.Pos = lang.Pos{}
					distinct[a] = true
					uses++
				}
			}
		}
		if len(distinct) > c.atMost {
			t.Fatalf("%s: %d distinct atoms in the source, expected at most %d", c.name, len(distinct), c.atMost)
		}
		inSource := func(s string) bool {
			if s == "" {
				return false
			}
			p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(c.src)))
			return p >= lo && p < lo+uintptr(len(c.src))
		}
		targets := func(conjs []bdd.Conj) int {
			seen := map[fmt.Stringer]bool{}
			for _, cj := range conjs {
				for _, con := range cj.Constraints {
					if a := con.Label.(*lang.Atom); !seen[a] && (inSource(a.LHS.Field) || inSource(a.LHS.Agg) || inSource(a.LHS.Key) || inSource(a.RHS.Sym)) {
						t.Errorf("%s: the retained atom %s holds a piece of the source text", c.name, a)
					}
					seen[con.Label] = true
				}
			}
			return len(seen)
		}
		pass, err := compiled(compiler.Observe(context.Background(), c.sp, compiler.Source{Text: c.src}, compiler.Options{}, nil))
		if err != nil {
			t.Fatal(err)
		}
		prog := pass.Program()
		sess := compiler.NewSession(c.sp, compiler.Options{})
		if _, err := sess.AddSource(c.src); err != nil {
			t.Fatal(err)
		}
		if p, s := targets(pass.Conjs()), targets(sess.LiveConjs()); p != len(distinct) || s != len(distinct) {
			t.Errorf("%s: %d uses of %d distinct atoms; the pass retains %d, the session %d",
				c.name, uses, len(distinct), p, s)
		}
		for _, set := range prog.Actions {
			for _, u := range set.Updates {
				if inSource(u.Var) || inSource(u.Func) || inSource(u.StateKey) || slices.ContainsFunc(u.Args, inSource) {
					t.Errorf("%s: the retained update %s holds a piece of the source text", c.name, u)
				}
			}
		}
	}
}

// TestCompileStageTelemetry: the compile clock starts where the caller came
// in — a compile from source counts its parse — and the three stages
// observed under camus_compiler_stage_seconds add up to it.
func TestCompileStageTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	src := strings.Join(fig5cLines(2000, 2), "\n")
	if _, err := compiler.CompileSource(workload.ITCHSpec(), src, compiler.Options{Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	total := reg.Histogram("camus_compiler_compile_seconds").Sum()
	var sum float64
	for _, stage := range []string{"frontend", "build", "lower"} {
		h := reg.Histogram("camus_compiler_stage_seconds", telemetry.L("stage", stage))
		if h.Count() != 1 || h.Sum() <= 0 {
			t.Errorf("stage %s: %d observations summing to %v", stage, h.Count(), h.Sum())
		}
		sum += h.Sum().Seconds()
	}
	if sum > total.Seconds() || sum < 0.95*total.Seconds() {
		t.Errorf("stages sum to %.6fs, the compile took %.6fs", sum, total.Seconds())
	}
}
