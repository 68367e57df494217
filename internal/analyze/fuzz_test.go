package analyze

import (
	"os"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/spec"
)

// FuzzAnalyzeAgreesWithCompile: over rule text against testdata/types.spec,
// a set the analyzer finds no error in compiles, and to the very program the
// pass compiled.
func FuzzAnalyzeAgreesWithCompile(f *testing.F) {
	specSrc, err := os.ReadFile("testdata/types.spec")
	if err != nil {
		f.Fatal(err)
	}
	sp, err := spec.Parse(string(specSrc))
	if err != nil {
		f.Fatal(err)
	}
	rules, err := os.ReadFile("testdata/types.rules")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(rules)), "\n") {
		f.Add(line)
	}
	f.Add(string(rules))
	f.Fuzz(func(t *testing.T, src string) {
		rep, prog := run(sp, compiler.Source{Text: src}, Options{}, compiler.Options{}, true)
		if rep.HasErrors() {
			return
		}
		want, err := compiler.CompileSource(sp, src, compiler.Options{})
		if err != nil {
			t.Fatalf("the analyzer finds no error, the compiler rejects the set: %v", err)
		}
		if prog.Dump() != want.Dump() {
			t.Fatalf("the pass's program:\n%s\nthe compile's:\n%s", prog.Dump(), want.Dump())
		}
	})
}
