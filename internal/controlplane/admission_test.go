package controlplane

import (
	"context"
	"errors"
	"strings"
	"testing"

	"camus/internal/analyze"
	"camus/internal/compiler"
	"camus/internal/faults"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/spec"
)

func parseRules(t *testing.T, src string) []lang.Rule {
	t.Helper()
	rules, err := lang.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestChurnAdmissionGate proves the gate's contract end to end: a churn
// carrying an error-severity rule (a range predicate on the exact-match
// stock field, CAM004) is rejected before the incremental session or the
// device sees it, and the session keeps working afterwards.
func TestChurnAdmissionGate(t *testing.T) {
	sp, err := spec.Parse(raceSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	initial := parseRules(t, "stock == GOOGL : fwd(1)\n")
	sess := compiler.NewSession(sp, compiler.Options{})
	ctl, handles, err := NewSessionController(sess, initial, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := faults.NewFlakyDevice(ctl.Switch()) // no faults armed: counts device writes
	ctl.SetDevice(dev)
	ctl.SetAdmission(analyze.NewGate(sp, analyze.Options{}, analyze.PolicyLenient))

	bad := parseRules(t, "stock > 100 : fwd(2)\n")
	_, _, err = ctl.Churn(context.Background(), bad, nil)
	if err == nil {
		t.Fatal("churn with a CAM004-error rule was admitted")
	}
	var rej *analyze.RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("churn error = %v, want *analyze.RejectionError in the chain", err)
	}
	if len(rej.Report.ByCode(analyze.CodeType)) == 0 {
		t.Errorf("rejection report carries no CAM004: %v", rej.Report.Diagnostics)
	}
	if dev.Calls() != 0 {
		t.Errorf("rejected churn reached the device: %d Reinstall call(s)", dev.Calls())
	}
	if got := sess.Len(); got != len(initial) {
		t.Errorf("rejected churn mutated the session: Len = %d, want %d", got, len(initial))
	}

	// The same session still accepts a clean churn: replace the initial
	// rule with two clean ones and verify the device saw exactly one
	// (successful) install.
	good := parseRules(t, "stock == AAPL : fwd(2)\nstock == GOOGL && price > 50 : fwd(3)\n")
	added, delta, err := ctl.Churn(context.Background(), good, handles[:1])
	if err != nil {
		t.Fatalf("clean churn after a rejection failed: %v", err)
	}
	if len(added) != 2 {
		t.Fatalf("clean churn returned %d handles, want 2", len(added))
	}
	if dev.Calls() != 1 {
		t.Errorf("clean churn: %d Reinstall call(s), want 1", dev.Calls())
	}
	if delta.Writes() == 0 {
		t.Error("clean churn produced no device writes")
	}
	if got := sess.Len(); got != 2 {
		t.Errorf("session Len = %d after churn, want 2", got)
	}

	// The live-set mirror tracks the churn: removing a just-added handle
	// again is fine, removing the long-gone initial handle is not.
	if _, _, err := ctl.Churn(context.Background(), nil, handles[:1]); err == nil {
		t.Error("churn removing an already-removed handle succeeded")
	}
}

// TestChurnStrictPolicyRejectsWarnings pins the policy distinction on
// the gate: a rule set with only warning-severity findings (a shadowed
// rule) passes lenient admission but fails strict.
func TestChurnStrictPolicyRejectsWarnings(t *testing.T) {
	sp, err := spec.Parse(raceSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	initial := parseRules(t, "stock == GOOGL && price > 10 : fwd(1)\n")
	shadowedAdd := parseRules(t, "stock == GOOGL && price > 20 : fwd(1)\n")

	for _, tc := range []struct {
		policy analyze.Policy
		wantOK bool
	}{
		{analyze.PolicyLenient, true},
		{analyze.PolicyStrict, false},
	} {
		sess := compiler.NewSession(sp, compiler.Options{})
		ctl, _, err := NewSessionController(sess, initial, pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ctl.SetAdmission(analyze.NewGate(sp, analyze.Options{}, tc.policy))
		_, _, err = ctl.Churn(context.Background(), shadowedAdd, nil)
		if ok := err == nil; ok != tc.wantOK {
			t.Errorf("policy %v: churn error = %v, want ok=%v", tc.policy, err, tc.wantOK)
		}
	}
}

// TestControllerUpdateRules covers the full-replacement path: the gate
// sees the rules before the compiler does, so a rejected set costs no
// compile and no device write.
func TestControllerUpdateRules(t *testing.T) {
	sp, err := spec.Parse(raceSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileSource(sp, "stock == GOOGL : fwd(1)\n", compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := pipeline.New(prog, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := faults.NewFlakyDevice(sw)
	ctl := NewController(dev)

	// Without a gate the rule-level entry point refuses to guess a spec.
	if _, err := ctl.UpdateRules(context.Background(), nil, compiler.Options{}); err == nil ||
		!strings.Contains(err.Error(), "admission gate") {
		t.Fatalf("UpdateRules without a gate = %v, want a SetAdmission hint", err)
	}

	ctl.SetAdmission(analyze.NewGate(sp, analyze.Options{}, analyze.PolicyLenient))
	bad := parseRules(t, "stock == GOOGL : fwd(1)\nstock > 100 : fwd(2)\n")
	if _, err := ctl.UpdateRules(context.Background(), bad, compiler.Options{}); err == nil {
		t.Fatal("rule set with a range predicate on an exact-match field (CAM004) was admitted")
	}
	if dev.Calls() != 0 {
		t.Errorf("rejected update reached the device: %d Reinstall call(s)", dev.Calls())
	}

	good := parseRules(t, "stock == AAPL && price > 100 : fwd(2)\n")
	if _, err := ctl.UpdateRules(context.Background(), good, compiler.Options{}); err != nil {
		t.Fatalf("clean update rejected: %v", err)
	}
	if dev.Calls() != 1 {
		t.Errorf("clean update: %d Reinstall call(s), want 1", dev.Calls())
	}
}
