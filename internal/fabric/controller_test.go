package fabric

import (
	"context"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/faults"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

// testFabricDevices builds an in-memory fabric: per leaf a down-plane and
// up-plane pipeline device, plus nSpines spine devices, all starting on
// the empty program and wrapped in counting flaky devices.
func testFabricDevices(t *testing.T, leaves, nSpines int) (*Controller, []*faults.FlakyDevice, *telemetry.Telemetry) {
	t.Helper()
	sp := workload.ITCHSpec()
	tel := telemetry.New()
	ctl, err := NewController(ControllerConfig{
		Spec: sp, Leaves: leaves, UplinkPort: 0,
		VerifyCovers: true,
		Telemetry:    tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	newDev := func() *faults.FlakyDevice {
		prog, err := compiler.CompileSource(sp, "", compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := pipeline.New(prog, pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return faults.NewFlakyDevice(sw)
	}
	var devs []*faults.FlakyDevice
	for j := 0; j < leaves; j++ {
		down, up := newDev(), newDev()
		devs = append(devs, down, up)
		if err := ctl.AddLeaf(
			Member{Name: "leaf-down", Dev: down},
			Member{Name: "leaf-up", Dev: up},
		); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < nSpines; s++ {
		spine := newDev()
		devs = append(devs, spine)
		ctl.AddSpine(Member{Name: "spine", Dev: spine})
	}
	return ctl, devs, tel
}

// decidesSome reports whether a row of the program decides a packet: the
// empty program, one terminal that does nothing, has none.
func decidesSome(p *compiler.Program) bool {
	for _, t := range p.Tables {
		for _, e := range t.Entries {
			if _, ok := compiler.Decides(e.Next); ok {
				return true
			}
		}
	}
	return false
}

// TestEpochCommitsAllMembers: a clean epoch programs every member, covers
// verify, and the spine program is coarser than the leaf programs.
func TestEpochCommitsAllMembers(t *testing.T) {
	ctl, devs, _ := testFabricDevices(t, 2, 1)
	rules := workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: 120, Stocks: 20, Hosts: 30, PriceMax: 1000, PriceGrid: 10, Seed: 3,
	})
	ep, err := ctl.Apply(context.Background(), rules)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Seq != 1 {
		t.Fatalf("epoch seq %d, want 1", ep.Seq)
	}
	if ep.LeafRules[0]+ep.LeafRules[1] < 120 {
		t.Fatalf("placement lost rules: %v", ep.LeafRules)
	}
	if ep.CompressionRatio() < 2 {
		t.Fatalf("spine not measurably coarser: %d leaf entries vs %d spine entries",
			ep.LeafEntries, ep.SpineEntries)
	}
	for i, d := range devs {
		if d.Calls() != 1 {
			t.Fatalf("device %d saw %d installs, want 1", i, d.Calls())
		}
		if !decidesSome(d.Program()) {
			t.Fatalf("device %d still on the empty program: no row decides a packet", i)
		}
	}
}

// TestEpochAdmissionAbortsUntouched: one undersized device fails phase-1
// admission and no device — including the healthy ones — sees a write.
func TestEpochAdmissionAbortsUntouched(t *testing.T) {
	sp := workload.ITCHSpec()
	tel := telemetry.New()
	ctl, err := NewController(ControllerConfig{Spec: sp, Leaves: 1, UplinkPort: 0, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	empty := func(cfg pipeline.Config) *faults.FlakyDevice {
		prog, err := compiler.CompileSource(sp, "", compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := pipeline.New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return faults.NewFlakyDevice(sw)
	}
	down := empty(pipeline.Config{})
	// The up plane's device has almost no TCAM: its cover program cannot
	// be admitted.
	// Enough for the empty boot program, far too small for a cover.
	tiny := pipeline.DefaultConfig()
	tiny.Stages = 4
	tiny.SRAMPerStage = 2
	tiny.TCAMPerStage = 1
	up := empty(tiny)
	if err := ctl.AddLeaf(Member{Name: "down", Dev: down}, Member{Name: "up", Dev: up}); err != nil {
		t.Fatal(err)
	}
	spine := empty(pipeline.Config{})
	ctl.AddSpine(Member{Name: "spine", Dev: spine})

	rules := workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: 50, Stocks: 10, Hosts: 8, PriceMax: 1000, PriceGrid: 10, Seed: 5,
	})
	_, err = ctl.Apply(context.Background(), rules)
	if err == nil || !strings.Contains(err.Error(), "admission failed") {
		t.Fatalf("undersized member admitted: %v", err)
	}
	for i, d := range []*faults.FlakyDevice{down, up, spine} {
		if d.Calls() != 0 {
			t.Fatalf("device %d written during an admission-rejected epoch (%d calls)", i, d.Calls())
		}
	}
}

// TestEpochFailureRollsBackAllMembers: a mid-epoch install failure must
// leave every fabric member on the prior epoch — zero partial installs —
// and a later clean Apply must converge.
func TestEpochFailureRollsBackAllMembers(t *testing.T) {
	ctl, devs, tel := testFabricDevices(t, 2, 1)
	// devs layout: 0=down0, 1=up0, 2=down1, 3=up1, 4=spine.
	// Commit order: down0, down1, up0, up1, spine.
	rules1 := workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: 100, Stocks: 15, Hosts: 24, PriceMax: 1000, PriceGrid: 10, Seed: 11,
	})
	if _, err := ctl.Apply(context.Background(), rules1); err != nil {
		t.Fatal(err)
	}
	before := make([]*compiler.Program, len(devs))
	callsBefore := make([]int, len(devs))
	for i, d := range devs {
		before[i] = d.Program()
		callsBefore[i] = d.Calls()
	}

	// Epoch 2: up1 (4th in commit order) fails permanently on its next
	// install. Default policy retries transients only, so one failed call.
	devs[3].FailOn(devs[3].Calls()+1, false)
	rules2 := workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: 140, Stocks: 15, Hosts: 24, PriceMax: 1000, PriceGrid: 10, Seed: 12,
	})
	_, err := ctl.Apply(context.Background(), rules2)
	if err == nil {
		t.Fatal("epoch with a failing member committed")
	}
	if !strings.Contains(err.Error(), "all members rolled back") {
		t.Fatalf("error does not report fabric rollback: %v", err)
	}
	for i, d := range devs {
		if d.Program() != before[i] {
			t.Fatalf("device %d not on the prior epoch's program after rollback", i)
		}
	}
	// Counting-device assertion — no member may keep a partial install:
	// down0, down1, up0 committed then rolled back (+2 calls); up1 failed
	// then self-rolled-back (+2); the spine, after the abort point, saw
	// nothing.
	wantExtra := []int{2, 2, 2, 2, 0}
	order := []int{0, 2, 1, 3, 4} // device index in commit order
	for k, i := range order {
		if got := devs[i].Calls() - callsBefore[i]; got != wantExtra[k] {
			t.Fatalf("device %d saw %d extra calls, want %d", i, got, wantExtra[k])
		}
	}
	snap := tel.Snapshot()
	if v := snap.Counters["camus_fabric_rollbacks_total"]; v != 1 {
		t.Fatalf("camus_fabric_rollbacks_total = %v, want 1", v)
	}
	if v := snap.Counters[`camus_fabric_epoch_total{outcome="rolled_back"}`]; v != 1 {
		t.Fatalf("camus_fabric_epoch_total{rolled_back} = %v, want 1", v)
	}

	// The fabric is not wedged: the same churn applies cleanly next try.
	ep, err := ctl.Apply(context.Background(), rules2)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Seq != 2 {
		t.Fatalf("converged epoch seq %d, want 2", ep.Seq)
	}
}

// TestEpochDropsRemovedRules: a rule absent from the next epoch leaves its
// leaf's session, so the leaf program installed from that session stops
// forwarding its packets. VerifyCovers checks that installed program: a
// session that kept the rule would match outside the new cover, and the
// epoch would fail its cover check.
func TestEpochDropsRemovedRules(t *testing.T) {
	ctl, devs, _ := testFabricDevices(t, 1, 1)
	for _, src := range []string{
		"stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)\n",
		"stock == GOOGL : fwd(1)\n",
	} {
		rules, err := lang.ParseRules(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Apply(context.Background(), rules); err != nil {
			t.Fatal(err)
		}
	}
	leaf := devs[0].Program()
	for pkt, want := range map[string]int{"stock=GOOGL": 1, "stock=MSFT": 0} {
		vals, err := leaf.ParseValueAssignment(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if n := leaf.Evaluate(vals).Ports.Len(); n != want {
			t.Errorf("%s: leaf forwards to %d ports, want %d", pkt, n, want)
		}
	}
}
