package dataplane

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/faults"
	"camus/internal/spec"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

// TestTelemetryAgreesWithChaosGroundTruth runs the aged-out-store chaos
// scenario and cross-checks three independent records of the same events:
// the test's own OnMessage/OnGap callbacks (ground truth), the typed
// Stats views, and the shared telemetry registry that /metrics scrapes.
// All three must agree exactly — the registry counters are the same
// memory the dataplane increments, not a sampled copy.
func TestTelemetryAgreesWithChaosGroundTruth(t *testing.T) {
	total := 1200
	if testing.Short() {
		total = 400
	}
	plan := faults.Plan{Seed: 23, Drop: 0.30}
	h := startChaos(t, plan, 16 /* tiny store */, 15*time.Millisecond)
	h.publish(t, total, 8)

	matched := h.stableMatched(t)
	deadline := time.Now().Add(20 * time.Second)
	for h.rcv.NextSeq() <= matched && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if h.rcv.NextSeq() <= matched {
		t.Fatalf("receiver hung at seq %d of %d", h.rcv.NextSeq(), matched)
	}

	h.mu.Lock()
	groundDelivered := uint64(len(h.seqs))
	var groundLost uint64
	for _, g := range h.gaps {
		groundLost += g[1] - g[0]
	}
	h.mu.Unlock()
	if groundLost == 0 {
		t.Fatal("chaos injected no lost gaps; agreement test is vacuous")
	}

	snap := h.tel.Snapshot()
	if got := snap.Counters["camus_receiver_gaps_lost_total"]; got != groundLost {
		t.Errorf("registry gaps_lost = %d, ground truth = %d", got, groundLost)
	}
	if got := snap.Counters["camus_receiver_delivered_total"]; got != groundDelivered {
		t.Errorf("registry delivered = %d, ground truth = %d", got, groundDelivered)
	}
	if got := h.rcv.stats.GapsLost.Load(); got != groundLost {
		t.Errorf("Stats view gaps_lost = %d, ground truth = %d", got, groundLost)
	}
	if groundDelivered+groundLost != matched {
		t.Errorf("delivered %d + lost %d != matched %d", groundDelivered, groundLost, matched)
	}
	if got := snap.Counters["camus_dataplane_matched_total"]; got != matched {
		t.Errorf("registry matched = %d, switch counter = %d", got, matched)
	}
	if got, want := snap.Counters["camus_receiver_requests_total"], h.rcv.stats.Requests.Load(); got != want {
		t.Errorf("registry retx requests = %d, Stats view = %d", got, want)
	}
	for _, name := range []string{
		"camus_dataplane_datagrams_total",
		"camus_dataplane_messages_total",
		"camus_dataplane_forwarded_total",
		"camus_receiver_datagrams_total",
		"camus_pipeline_packets_total",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s is zero after chaos traffic", name)
		}
	}
	if snap.Histograms["camus_dataplane_process_seconds"].Count == 0 {
		t.Error("processing-latency histogram observed nothing")
	}
}

// TestAdminEndpointServesLiveMetrics drives traffic through an
// instrumented switch and scrapes the admin handler the way CI's smoke
// step does: /metrics must expose nonzero camus_ counters in valid
// Prometheus text format, and /debug/camus must be a JSON Snapshot that
// agrees with the scrape.
func TestAdminEndpointServesLiveMetrics(t *testing.T) {
	h := startChaos(t, faults.Plan{}, 0, 15*time.Millisecond)
	h.publish(t, 200, 4)
	matched := h.stableMatched(t)
	if matched == 0 {
		t.Fatal("nothing matched")
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.rcv.stats.Delivered.Load() < matched && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	srv := httptest.NewServer(telemetry.Handler(h.sw.Telemetry()))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}
	want := fmt.Sprintf("camus_dataplane_matched_total %d", matched)
	if !strings.Contains(metrics, want) {
		t.Errorf("/metrics missing %q", want)
	}
	if !strings.Contains(metrics, `camus_pipeline_table_hits_total{table=`) {
		t.Error("/metrics missing per-table hit counters")
	}
	// Every sample line must have the promlint shape CI greps for.
	lint := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lint.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}

	debug, ctype := get("/debug/camus")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/camus Content-Type = %q", ctype)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(debug), &snap); err != nil {
		t.Fatalf("/debug/camus is not a Snapshot: %v", err)
	}
	if got := snap.Counters["camus_dataplane_matched_total"]; got != matched {
		t.Errorf("/debug/camus matched = %d, want %d", got, matched)
	}

	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
}

// TestEgressGroupsGaugeFollowsTheDevice: camus_dataplane_egress_groups is
// read off the program the device runs, so it is right after any install —
// SetSubscriptions, or a program written to the device out of band.
func TestEgressGroupsGaugeFollowsTheDevice(t *testing.T) {
	tel := telemetry.New()
	sp := spec.MustParse(workload.ITCHSpecSource)
	sw, err := Listen(Config{Spec: sp, Subscriptions: "stock == GOOGL : fwd(1,2)", Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	groups := func(when string, want float64) {
		t.Helper()
		if got := tel.Snapshot().Gauges["camus_dataplane_egress_groups"]; got != want {
			t.Fatalf("%s: camus_dataplane_egress_groups = %v, want %v", when, got, want)
		}
	}
	groups("after Listen", 1)
	prog, err := compiler.CompileSource(sp, "stock == GOOGL : fwd(1,2)\nstock == ORCL : fwd(2,3)", compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Device().Reinstall(prog); err != nil {
		t.Fatal(err)
	}
	groups("after an out-of-band Reinstall", 2)
	if err := sw.SetSubscriptions("stock == GOOGL : fwd(1)"); err != nil {
		t.Fatal(err)
	}
	groups("after SetSubscriptions", 0)
}
