package controlplane

import (
	"context"
	"errors"
	"testing"

	"camus/internal/analyze"
	"camus/internal/compiler"
	"camus/internal/faults"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/spec"
)

// gatedSwitch is a switch running one rule behind a device that counts its
// Reinstall calls (no faults armed), and its controller.
func gatedSwitch(t *testing.T) (*spec.Spec, *faults.FlakyDevice, *Controller) {
	t.Helper()
	sp, err := spec.Parse(raceSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := pipeline.New(compileRace(t, sp, "stock == GOOGL : fwd(1)\n"), pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := faults.NewFlakyDevice(sw)
	return sp, dev, NewController(dev)
}

// admitThenUpdate is the one way a rule set reaches the device: the gate
// analyzes and compiles it, and Update installs the program the gate priced.
func admitThenUpdate(t *testing.T, ctl *Controller, gate *analyze.Gate, src string) (*compiler.Program, Delta, error) {
	prog, _, err := gate.Admit(parseRules(t, src), compiler.Options{})
	if err != nil {
		return nil, Delta{}, err
	}
	delta, err := ctl.Update(context.Background(), prog)
	return prog, delta, err
}

// TestControllerUpdateRules covers the full-replacement path: a rule set
// carrying an error-severity rule (a range predicate on the exact-match
// stock field, CAM004) is rejected with the report before any device write,
// and a clean set is installed with exactly one.
func TestControllerUpdateRules(t *testing.T) {
	sp, dev, ctl := gatedSwitch(t)
	gate := analyze.NewGate(sp, analyze.Options{}, analyze.PolicyLenient)

	_, _, err := admitThenUpdate(t, ctl, gate, "stock == GOOGL : fwd(1)\nstock > 100 : fwd(2)\n")
	var rej *analyze.RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("a CAM004 set: error = %v, want a *analyze.RejectionError", err)
	}
	if len(rej.Report.ByCode(analyze.CodeType)) == 0 {
		t.Errorf("rejection report carries no CAM004: %v", rej.Report.Diagnostics)
	}
	if dev.Calls() != 0 {
		t.Errorf("a rejected set reached the device: %d Reinstall call(s)", dev.Calls())
	}

	prog, delta, err := admitThenUpdate(t, ctl, gate, "stock == AAPL : fwd(2)\nstock == GOOGL && price > 50 : fwd(3)\n")
	if err != nil {
		t.Fatalf("a clean set was refused: %v", err)
	}
	if dev.Calls() != 1 {
		t.Errorf("a clean set: %d Reinstall call(s), want 1", dev.Calls())
	}
	if delta.Writes() == 0 || ctl.Program() != prog {
		t.Errorf("the device does not run the program the gate priced (%d writes)", delta.Writes())
	}
}

// TestChurnAdmissionGate covers the incremental route: the caller vets the
// rule set it is about to Sync with Gate.Admit, so a set adding a CAM004
// rule reaches neither the session nor the device, and the same session
// then takes a clean set with one install, and the clean set again with no
// write.
func TestChurnAdmissionGate(t *testing.T) {
	sp, err := spec.Parse(raceSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	initial := parseRules(t, "stock == GOOGL : fwd(1)\n")
	sess, _, dev, ctl := syncSwitch(t, sp, initial, pipeline.Config{}) // no faults armed: dev counts device writes
	gate := analyze.NewGate(sp, analyze.Options{}, analyze.PolicyLenient)

	// churn admits the set, then syncs the session to it and installs.
	churn := func(set []lang.Rule) (Delta, error) {
		if _, _, err := gate.Admit(set, compiler.Options{}); err != nil {
			return Delta{}, err
		}
		return syncUpdate(context.Background(), ctl, sess, set)
	}

	_, err = churn(append(initial, parseRules(t, "stock > 100 : fwd(2)\n")...))
	var rej *analyze.RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("a CAM004 churn: error = %v, want a *analyze.RejectionError", err)
	}
	if len(rej.Report.ByCode(analyze.CodeType)) == 0 {
		t.Errorf("rejection report carries no CAM004: %v", rej.Report.Diagnostics)
	}
	if dev.Calls() != 0 {
		t.Errorf("a rejected churn reached the device: %d Reinstall call(s)", dev.Calls())
	}
	if got := liveRules(t, sess); got != len(initial) {
		t.Errorf("a rejected churn mutated the session: %d live rules, want %d", got, len(initial))
	}

	// Replace the initial rule with two clean ones.
	clean := parseRules(t, "stock == AAPL : fwd(2)\nstock == GOOGL && price > 50 : fwd(3)\n")
	delta, err := churn(clean)
	if err != nil {
		t.Fatalf("a clean churn after a rejection failed: %v", err)
	}
	if dev.Calls() != 1 {
		t.Errorf("a clean churn: %d Reinstall call(s), want 1", dev.Calls())
	}
	if delta.Writes() == 0 {
		t.Error("a clean churn produced no device writes")
	}
	if got := liveRules(t, sess); got != 2 {
		t.Errorf("session holds %d live rules after the churn, want 2", got)
	}

	// The same set again is live already: nothing to write.
	if delta, err := churn(clean); err != nil || delta.Writes() != 0 {
		t.Errorf("re-syncing the live set: %d writes, error %v", delta.Writes(), err)
	}
}

// TestGateAdmitStrictRejectsWarnings pins the policy distinction: a rule
// set whose only finding is a warning (a shadowed rule) is installed under
// lenient admission and refused under strict.
func TestGateAdmitStrictRejectsWarnings(t *testing.T) {
	const shadowed = "stock == GOOGL && price > 10 : fwd(1)\nstock == GOOGL && price > 20 : fwd(1)\n"
	for _, tc := range []struct {
		policy analyze.Policy
		calls  int
	}{
		{analyze.PolicyLenient, 1},
		{analyze.PolicyStrict, 0},
	} {
		sp, dev, ctl := gatedSwitch(t)
		_, _, err := admitThenUpdate(t, ctl, analyze.NewGate(sp, analyze.Options{}, tc.policy), shadowed)
		if ok := err == nil; ok != (tc.calls == 1) {
			t.Errorf("policy %v: error = %v", tc.policy, err)
		}
		if dev.Calls() != tc.calls {
			t.Errorf("policy %v: %d Reinstall call(s), want %d", tc.policy, dev.Calls(), tc.calls)
		}
	}
}

// liveRules is the number of rules a recompile of the session compiles.
func liveRules(t *testing.T, sess *compiler.Session) int {
	t.Helper()
	prog, err := sess.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	return prog.Stats.Rules
}
