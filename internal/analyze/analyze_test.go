package analyze

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/spec"
)

// loadFixture reads the 8-rule fixture that triggers every CAM001–CAM006
// code, with a tiny device budget so the resource check fires too.
func loadFixture(t *testing.T) (*spec.Spec, string, Options) {
	t.Helper()
	specSrc, err := os.ReadFile("testdata/bad8.spec")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(string(specSrc))
	if err != nil {
		t.Fatal(err)
	}
	rulesSrc, err := os.ReadFile("testdata/bad8.rules")
	if err != nil {
		t.Fatal(err)
	}
	budget := pipeline.Config{Ports: 32, Stages: 2, SRAMPerStage: 4, TCAMPerStage: 4}
	return sp, string(rulesSrc), Options{Budget: &budget}
}

func TestFixtureTriggersEveryCode(t *testing.T) {
	sp, src, opts := loadFixture(t)
	rep := Source(sp, src, opts)

	type want struct {
		code     string
		severity Severity
		line     int
		col      int
	}
	wants := []want{
		{CodeUnsat, SevWarning, 1, 1},     // price > 100 && price < 50
		{CodeShadowed, SevWarning, 3, 19}, // price > 20 subsumed by price > 10
		{CodeDuplicate, SevWarning, 4, 19},
		{CodeType, SevError, 5, 1},       // range predicate on exact-match stock
		{CodeType, SevWarning, 6, 1},     // 5000000000 overflows 32-bit shares
		{CodeUnsat, SevWarning, 6, 1},    // ...and therefore never matches
		{CodeConflict, SevWarning, 8, 1}, // fwd overlaps rule 6's drop
		{CodeResources, SevError, 8, 1},  // tiny budget
	}
	for _, w := range wants {
		found := false
		for _, d := range rep.ByCode(w.code) {
			if d.Severity == w.severity && d.Line == w.line && d.Col == w.col {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic %s %s at %d:%d; got:\n%s",
				w.severity, w.code, w.line, w.col, rep.Text(""))
		}
	}
	for _, code := range []string{CodeUnsat, CodeShadowed, CodeDuplicate, CodeType, CodeConflict, CodeResources} {
		if len(rep.ByCode(code)) == 0 {
			t.Errorf("fixture did not trigger %s", code)
		}
	}
	if rep.Errors() != 2 {
		t.Errorf("Errors() = %d, want 2 (CAM004 range-on-exact + CAM006)", rep.Errors())
	}

	// Diagnostics must arrive sorted by position.
	for i := 1; i < len(rep.Diagnostics); i++ {
		if diagLess(rep.Diagnostics[i], rep.Diagnostics[i-1]) {
			t.Errorf("diagnostics out of order at %d: %v before %v", i, rep.Diagnostics[i-1], rep.Diagnostics[i])
		}
	}
}

func TestFixtureRelatedLocations(t *testing.T) {
	sp, src, opts := loadFixture(t)
	rep := Source(sp, src, opts)

	shadow := rep.ByCode(CodeShadowed)
	if len(shadow) != 1 || len(shadow[0].Related) == 0 {
		t.Fatalf("CAM002 = %+v, want one diagnostic with a related location", shadow)
	}
	if rel := shadow[0].Related[0]; rel.Line != 2 {
		t.Errorf("CAM002 related line = %d, want 2 (the subsuming rule)", rel.Line)
	}

	// The range-on-exact error points back at the spec declaration.
	for _, d := range rep.ByCode(CodeType) {
		if d.Severity != SevError {
			continue
		}
		if len(d.Related) == 0 || d.Related[0].Line != 12 {
			t.Errorf("CAM004 error related = %+v, want the @query_field_exact line (12)", d.Related)
		}
	}
}

func TestTextFormat(t *testing.T) {
	sp, src, opts := loadFixture(t)
	rep := Source(sp, src, opts)
	text := rep.Text("bad8.rules")
	// Canonical shape: file:line:col: severity CAMxxx: msg
	re := regexp.MustCompile(`(?m)^bad8\.rules:5:1: error CAM004: range predicate`)
	if !re.MatchString(text) {
		t.Errorf("Text() missing canonical CAM004 line; got:\n%s", text)
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !regexp.MustCompile(`^bad8\.rules:\d+:\d+: (error|warning|info|note)`).MatchString(line) {
			t.Errorf("malformed diagnostic line %q", line)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sp, src, opts := loadFixture(t)
	rep := Source(sp, src, opts)
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Diagnostics []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
			Line     int    `json:"line"`
		} `json:"diagnostics"`
		Rules int `json:"rules"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if decoded.Rules != 8 {
		t.Errorf("rules = %d, want 8", decoded.Rules)
	}
	if len(decoded.Diagnostics) != len(rep.Diagnostics) {
		t.Errorf("diagnostics = %d, want %d", len(decoded.Diagnostics), len(rep.Diagnostics))
	}
	for _, d := range decoded.Diagnostics {
		switch d.Severity {
		case "info", "warning", "error":
		default:
			t.Errorf("severity %q not lowercase name", d.Severity)
		}
	}
}

func TestSARIFValid(t *testing.T) {
	sp, src, opts := loadFixture(t)
	rep := Source(sp, src, opts)
	data, err := rep.SARIF("testdata/bad8.rules")
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version=%q runs=%d, want 2.1.0 with one run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "camus-vet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) != len(rep.Diagnostics) {
		t.Errorf("results = %d, want %d", len(run.Results), len(rep.Diagnostics))
	}
	idRe := regexp.MustCompile(`^CAM\d{3}$`)
	declared := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		declared[r.ID] = true
	}
	for _, r := range run.Results {
		if !idRe.MatchString(r.RuleID) || !declared[r.RuleID] {
			t.Errorf("result ruleId %q not declared in driver rules", r.RuleID)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %q has %d locations", r.RuleID, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != "testdata/bad8.rules" {
			t.Errorf("uri = %q", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine < 1 || loc.Region.StartColumn < 1 {
			t.Errorf("result %q region %+v not 1-based", r.RuleID, loc.Region)
		}
		switch r.Level {
		case "error", "warning", "note":
		default:
			t.Errorf("level %q invalid", r.Level)
		}
	}
}

func TestSourceParseError(t *testing.T) {
	sp := &spec.Spec{}
	sp.AddQueryField("a", 8, spec.MatchRange)
	rep := Source(sp, "a == : fwd(1)", Options{SkipResources: true})
	cam0 := rep.ByCode(CodeParse)
	if len(cam0) != 1 || cam0[0].Severity != SevError {
		t.Fatalf("parse failure diagnostics = %+v, want one CAM000 error", rep.Diagnostics)
	}
	if cam0[0].Line != 1 || cam0[0].Col == 0 {
		t.Errorf("CAM000 position = %d:%d, want parser position on line 1", cam0[0].Line, cam0[0].Col)
	}
}

func TestGatePolicies(t *testing.T) {
	sp, src, opts := loadFixture(t)
	rules, err := lang.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}

	// Off: no report; the gate only compiles.
	prog, rep, err := NewGate(sp, opts, PolicyOff).Admit(rules, compiler.Options{})
	want, werr := compiler.Compile(sp, rules, compiler.Options{})
	if rep != nil || (err == nil) != (werr == nil) || (prog == nil) != (want == nil) {
		t.Errorf("PolicyOff: prog=%v rep=%v err=%v, want the compile's (%v)", prog != nil, rep, err, werr)
	}
	var nilGate *Gate
	if prog, rep, err := nilGate.Admit(rules, compiler.Options{}); prog != nil || rep != nil || err != nil {
		t.Errorf("nil gate: prog=%v rep=%v err=%v, want nil/nil/nil", prog, rep, err)
	}

	// Lenient: the fixture has errors, so it is rejected.
	prog, rep, err = NewGate(sp, opts, PolicyLenient).Admit(rules, compiler.Options{})
	if err == nil || prog != nil {
		t.Fatal("PolicyLenient admitted a rule set with errors")
	}
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("error %T is not a *RejectionError", err)
	}
	if rej.Report != rep || !rej.Report.HasErrors() {
		t.Error("RejectionError does not carry the report")
	}
	if !strings.Contains(err.Error(), "lenient") || !strings.Contains(err.Error(), "CAM") {
		t.Errorf("rejection message %q lacks policy/code detail", err.Error())
	}

	// A warnings-only set passes lenient but fails strict.
	warnOnly, err := lang.ParseRules("price > 100 && price < 50 : fwd(1)\nprice > 10 : fwd(2)\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err = NewGate(sp, Options{SkipResources: true}, PolicyLenient).Admit(warnOnly, compiler.Options{})
	if err != nil {
		t.Errorf("PolicyLenient rejected warnings-only set: %v", err)
	}
	// The admitted set's program is the one to install, priced or not.
	if want, err := compiler.Compile(sp, warnOnly, compiler.Options{}); err != nil || prog == nil || prog.Dump() != want.Dump() {
		t.Errorf("PolicyLenient's program differs from the compile of the set it admitted (%v)", err)
	}
	if _, _, err := NewGate(sp, Options{SkipResources: true}, PolicyStrict).Admit(warnOnly, compiler.Options{}); err == nil {
		t.Error("PolicyStrict admitted a set with warnings")
	}
}

func TestCleanSetIsClean(t *testing.T) {
	sp, _, _ := loadFixture(t)
	src := `
stock == GOOGL && price > 50 : fwd(1)
stock == MSFT && shares < 1000 : fwd(2)
avg(price) > 30 && stock == AAPL : fwd(3); ctr <- count()
`
	rep := Source(sp, src, Options{})
	if len(rep.Diagnostics) != 0 {
		t.Errorf("clean rule set produced diagnostics:\n%s", rep.Text(""))
	}
	if rep.Estimate == nil || !rep.Estimate.Fits() {
		t.Errorf("estimate = %+v, want a fitting resource plan", rep.Estimate)
	}
}

func TestMaxPairsTruncation(t *testing.T) {
	sp := &spec.Spec{}
	sp.AddQueryField("a", 16, spec.MatchRange)
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "a > %d : fwd(1)\n", i)
	}
	rep := Source(sp, b.String(), Options{SkipResources: true, MaxPairs: 10})
	if len(rep.ByCode(CodeLimit)) != 1 {
		t.Fatalf("truncated run reported %d CAM007, want 1:\n%s", len(rep.ByCode(CodeLimit)), rep.Text(""))
	}
	if d := rep.ByCode(CodeLimit)[0]; d.Severity != SevInfo {
		t.Errorf("CAM007 severity = %v, want info", d.Severity)
	}
}
