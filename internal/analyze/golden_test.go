package analyze

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"camus/internal/spec"
)

// goldenFiles are the checked-in rule files, each with its spec. union.rules
// is the one whose pairs reach bdd.Implies: its first rule is a union of two
// conjunctions, each later rule meets both and lies in neither, and the
// diagrams show that the union contains the second and misses the third.
// types.rules has one rule for each kind of CAM004, and one with two bad
// atoms, over the spec of fieldtable_test.go.
var goldenFiles = []struct{ name, spec, rules string }{
	{"market", "../../examples/rules/itch.spec", "../../examples/rules/market.rules"},
	{"ratelimit", "../../examples/rules/ratelimit.spec", "../../examples/rules/ratelimit.rules"},
	{"bad8", "testdata/bad8.spec", "testdata/bad8.rules"},
	{"union", "testdata/bad8.spec", "testdata/union.rules"},
	{"types", "testdata/types.spec", "testdata/types.rules"},
}

// goldenOutputs renders a report the three ways camus-vet prints one: text,
// JSON with the elapsed time zeroed, and SARIF.
func goldenOutputs(t *testing.T, specPath, rulesPath string) map[string][]byte {
	t.Helper()
	specSrc, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(string(specSrc))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(rulesPath)
	if err != nil {
		t.Fatal(err)
	}
	rep := Source(sp, string(src), Options{})
	rep.Elapsed = 0
	file := filepath.Base(rulesPath)
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sarif, err := rep.SARIF(file)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"txt": []byte(rep.Text(file)), "json": js, "sarif": sarif}
}

// TestReportGolden pins the analyzer's output on every checked-in rule file
// at the default budget, byte for byte, against testdata/golden.
func TestReportGolden(t *testing.T) {
	for _, g := range goldenFiles {
		t.Run(g.name, func(t *testing.T) {
			for ext, got := range goldenOutputs(t, g.spec, g.rules) {
				path := filepath.Join("testdata", "golden", g.name+"."+ext)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
				}
			}
		})
	}
}
