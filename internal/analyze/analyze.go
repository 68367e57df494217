// Package analyze is the static analysis of subscription rule sets: it
// checks rules against a message-format spec and emits structured
// diagnostics with stable codes, before anything touches the device.
//
// It runs on the compiler's own front end (compiler.Observe): the resolver
// shows it every rule, and the analysis keeps the rules it finds no error in.
// Its checks are:
//
//   - per-rule checks (CAM004): whatever the resolver rejects (unknown
//     fields, aggregates or keys, symbolic constants that do not encode), in
//     the resolver's words, and the analyzer's own policy over what it
//     accepts (range predicates on @query_field_exact fields, values
//     overflowing the declared field width, updates of undeclared state
//     variables); and per-rule satisfiability (CAM001), decided on the
//     interval sets the resolver interned;
//   - pairwise checks (CAM002 shadowing/subsumption, CAM003 duplicates,
//     CAM005 conflicting actions on overlapping conditions), using an
//     interval bounding-projection pre-filter plus a point-value bucketing
//     pass so the quadratic work is near-linear on realistic rule sets,
//     with the multi-terminal BDD of package bdd (shared Builder arena) as
//     the exact containment oracle when interval reasoning alone is not
//     decisive;
//   - whole-set resources (CAM006): the compiler's back end over the rules
//     kept, and pipeline.Plan of that program against a device budget.
//
// camusc -check and camus-vet print the diagnostics; the control plane
// runs the same pass as an admission gate (see Gate) so an error-severity
// rule set is rejected before any device write, and installs the program
// the gate priced.
package analyze

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/telemetry"
)

// Diagnostic codes. The numbering is stable: tools and CI may grep for
// them.
const (
	CodeParse     = "CAM000" // source does not parse / rule rejected by front end
	CodeUnsat     = "CAM001" // condition is unsatisfiable
	CodeShadowed  = "CAM002" // rule shadowed/subsumed by another rule
	CodeDuplicate = "CAM003" // duplicate rule
	CodeType      = "CAM004" // type/match-kind mismatch against the spec
	CodeConflict  = "CAM005" // conflicting actions for overlapping conditions
	CodeResources = "CAM006" // estimated table entries exceed device budget
	CodeLimit     = "CAM007" // analysis truncated (pairwise budget exhausted)
)

// Severity grades a diagnostic.
type Severity int

// Severities, in increasing order of badness.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

var severityNames = [...]string{"info", "warning", "error"}

func (s Severity) String() string {
	if s < 0 || int(s) >= len(severityNames) {
		return fmt.Sprintf("severity(%d)", int(s))
	}
	return severityNames[s]
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Diagnostic is one finding of the analysis pass.
type Diagnostic struct {
	Code     string    `json:"code"`
	Severity Severity  `json:"severity"`
	Rule     int       `json:"rule"` // rule index in the set; -1 for set-level findings
	Line     int       `json:"line"`
	Col      int       `json:"col"`
	Msg      string    `json:"msg"`
	Related  []Related `json:"related,omitempty"`
}

// Related points a diagnostic at another involved source location (the
// shadowing rule, the spec declaration, ...).
type Related struct {
	Rule int    `json:"rule"` // rule index, -1 when the location is not a rule
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// String renders the canonical single-line form (no file prefix):
//
//	line:col: severity CAMxxx: msg
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s %s: %s", d.Line, d.Col, d.Severity, d.Code, d.Msg)
}

// Options configures an analysis run. The zero value is ready to use.
type Options struct {
	// Budget is the device the rule set must fit (CAM006). Nil means
	// pipeline.DefaultConfig().
	Budget *pipeline.Config
	// SkipResources stops the pass after the front end: no program is
	// compiled or priced (CAM006).
	SkipResources bool
	// MaxPairs caps the number of exact pairwise tests after
	// pre-filtering; past it the pass emits CAM007 and stops pairing.
	// 0 means DefaultMaxPairs.
	MaxPairs int
	// Telemetry, when non-nil, receives camus_analyze_* series.
	Telemetry *telemetry.Registry
}

// DefaultMaxPairs bounds pairwise work (CAM002/CAM003/CAM005) per run.
const DefaultMaxPairs = 4_000_000

func (o Options) maxPairs() int {
	if o.MaxPairs > 0 {
		return o.MaxPairs
	}
	return DefaultMaxPairs
}

func (o Options) budget() pipeline.Config {
	if o.Budget != nil {
		return *o.Budget
	}
	return pipeline.DefaultConfig()
}

// Report is the result of analyzing one rule set.
type Report struct {
	Diagnostics []Diagnostic  `json:"diagnostics"`
	Rules       int           `json:"rules"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// Estimate is the plan of the program compiled from the rules kept
	// (nil when SkipResources was set or no rule was kept).
	Estimate *pipeline.ResourceReport `json:"estimate,omitempty"`
}

// Count returns the number of diagnostics at exactly the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// Errors returns the number of error-severity diagnostics.
func (r *Report) Errors() int { return r.Count(SevError) }

// Warnings returns the number of warning-severity diagnostics.
func (r *Report) Warnings() int { return r.Count(SevWarning) }

// HasErrors reports whether any diagnostic is an error.
func (r *Report) HasErrors() bool { return r.Errors() > 0 }

// ByCode returns the diagnostics carrying the given code.
func (r *Report) ByCode(code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

// Rules analyzes a parsed rule set against a spec. The returned report
// always reflects every check that could run; hard internal failures
// surface as CAM000 diagnostics, never as panics or lost findings.
func Rules(sp *spec.Spec, rules []lang.Rule, opts Options) *Report {
	rep, _ := run(sp, compiler.Source{Rules: rules}, opts, compiler.Options{}, false)
	return rep
}

// Source analyzes rule source text. A rule that does not parse or cannot
// be normalized is the report's one diagnostic, a CAM000 at its position.
func Source(sp *spec.Spec, src string, opts Options) *Report {
	rep, _ := run(sp, compiler.Source{Text: src}, opts, compiler.Options{}, false)
	return rep
}

// run is the pass, compiling with copts: the front end with the per-rule
// checks as its observer (CAM001, CAM004), the pairwise checks (CAM002,
// CAM003, CAM005, CAM007), and the back end over the rules kept (CAM006),
// unless SkipResources stops it first and program does not ask for it
// anyway. It returns the program compiled, if any.
func run(sp *spec.Spec, src compiler.Source, opts Options, copts compiler.Options, program bool) (*Report, *compiler.Program) {
	start := time.Now()
	a := newAnalysis(sp, opts)
	pass, err := compiler.Observe(context.Background(), sp, src, copts, a.checkRule)
	if err != nil {
		rep := &Report{Diagnostics: []Diagnostic{frontEndError(err)}}
		record(opts.Telemetry, rep)
		return rep, nil
	}
	a.fields = compiler.BDDFields(pass.Fields())
	a.checkPairwise()
	rep := &Report{Rules: a.seen}
	var prog *compiler.Program
	if program || !opts.SkipResources {
		prog = a.checkResources(pass, rep)
	}
	sort.SliceStable(a.diags, func(i, j int) bool { return diagLess(a.diags[i], a.diags[j]) })
	rep.Diagnostics = a.diags
	rep.Elapsed = time.Since(start)
	record(opts.Telemetry, rep)
	return rep, prog
}

// frontEndError is the CAM000 of a rule that does not parse or cannot be
// normalized; every rule a pass keeps resolves.
func frontEndError(err error) Diagnostic {
	d := Diagnostic{Code: CodeParse, Severity: SevError, Rule: -1, Msg: err.Error()}
	var serr *lang.SyntaxError
	var rerr *lang.RuleError
	switch {
	case errors.As(err, &serr):
		d.Line, d.Col, d.Msg = serr.Line, serr.Col, serr.Msg
	case errors.As(err, &rerr):
		d.Rule, d.Line, d.Col = rerr.ID, rerr.Pos.Line, rerr.Pos.Col
		d.Msg = "rule cannot be normalized: " + err.Error()
	}
	return d
}

// diagLess orders diagnostics by source position, then code, then rule.
func diagLess(a, b Diagnostic) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	if a.Code != b.Code {
		return a.Code < b.Code
	}
	return a.Rule < b.Rule
}

// record exports the run's outcome as camus_analyze_* telemetry.
func record(reg *telemetry.Registry, rep *Report) {
	if reg == nil {
		return
	}
	reg.Counter("camus_analyze_runs_total").Inc()
	reg.Histogram("camus_analyze_seconds").Observe(rep.Elapsed)
	for _, d := range rep.Diagnostics {
		reg.Counter("camus_analyze_diagnostics_total",
			telemetry.L("code", d.Code), telemetry.L("severity", d.Severity.String())).Inc()
	}
}
