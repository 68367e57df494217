package analyze

import (
	"context"
	"fmt"
	"strings"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
)

// Policy selects how strict an admission gate is about diagnostics.
type Policy int

const (
	// PolicyOff disables analysis entirely: a gate only compiles.
	PolicyOff Policy = iota
	// PolicyLenient rejects rule sets with error-severity diagnostics;
	// warnings are logged/counted but admitted.
	PolicyLenient
	// PolicyStrict rejects on warnings too.
	PolicyStrict
)

func (p Policy) String() string {
	switch p {
	case PolicyOff:
		return "off"
	case PolicyLenient:
		return "lenient"
	case PolicyStrict:
		return "strict"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// rejects reports whether the policy rejects a report.
func (p Policy) rejects(r *Report) bool {
	switch p {
	case PolicyLenient:
		return r.HasErrors()
	case PolicyStrict:
		return r.HasErrors() || r.Warnings() > 0
	default:
		return false
	}
}

// RejectionError is returned when a rule set fails admission. It carries
// the full report so callers can render every diagnostic.
type RejectionError struct {
	Policy Policy
	Report *Report
}

func (e *RejectionError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule set rejected by %s analysis policy: %d error(s), %d warning(s)",
		e.Policy, e.Report.Errors(), e.Report.Warnings())
	n := 0
	for _, d := range e.Report.Diagnostics {
		if d.Severity < SevWarning {
			continue
		}
		if n == 3 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		fmt.Fprintf(&b, "; %s", d.String())
		n++
	}
	return b.String()
}

// Gate is a reusable admission check for the control plane: Admit runs
// the analysis pass, rejects rule sets the policy disallows before anything
// is written to a device, and returns the program of a set it admits. A nil
// *Gate admits everything and compiles nothing.
type Gate struct {
	Spec   *spec.Spec
	Opts   Options
	Policy Policy
}

// NewGate builds an admission gate. Telemetry flows through
// Opts.Telemetry (camus_analyze_* series plus gate verdict counters).
func NewGate(sp *spec.Spec, opts Options, policy Policy) *Gate {
	return &Gate{Spec: sp, Opts: opts, Policy: policy}
}

// Admit analyzes the prospective rule set, compiling it with copts. It
// returns the program of an admitted set — the one CAM006 priced — and the
// report (nil under PolicyOff), or, when the policy rejects the set, the
// report and a *RejectionError. Warnings on admitted sets are observable
// via the report and the telemetry series.
func (g *Gate) Admit(rules []lang.Rule, copts compiler.Options) (*compiler.Program, *Report, error) {
	return g.admit(compiler.Source{Rules: rules}, copts)
}

// AdmitSource is Admit over rule source text.
func (g *Gate) AdmitSource(src string, copts compiler.Options) (*compiler.Program, *Report, error) {
	return g.admit(compiler.Source{Text: src}, copts)
}

func (g *Gate) admit(src compiler.Source, copts compiler.Options) (*compiler.Program, *Report, error) {
	if g == nil {
		return nil, nil, nil
	}
	if g.Policy == PolicyOff {
		pass, err := compiler.Observe(context.Background(), g.Spec, src, copts, nil)
		if err != nil {
			return nil, nil, err
		}
		prog, err := pass.Compile()
		return prog, nil, err
	}
	rep, prog := run(g.Spec, src, g.Opts, copts, true)
	if reg := g.Opts.Telemetry; reg != nil {
		if g.Policy.rejects(rep) {
			reg.Counter("camus_analyze_rejected_total").Inc()
		} else {
			reg.Counter("camus_analyze_admitted_total").Inc()
		}
	}
	if g.Policy.rejects(rep) {
		return nil, rep, &RejectionError{Policy: g.Policy, Report: rep}
	}
	return prog, rep, nil
}
