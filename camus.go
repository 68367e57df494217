// Package camus is a Go implementation of packet subscriptions for
// programmable ASICs — the system described in "Packet Subscriptions for
// Programmable ASICs" (Jepsen et al., HotNets 2018).
//
// A packet subscription is a stateful predicate over packet contents that
// determines a forwarding decision:
//
//	stock == GOOGL && avg(price) > 50 : fwd(1)
//
// The Camus compiler turns a set of such rules into the configuration of
// a fixed-length match-action pipeline: it normalizes the conditions to
// disjunctive form, folds them into a multi-terminal binary decision
// diagram with aggressive reductions, slices the BDD into per-field
// components, and emits one match-action table per field (Algorithm 1 of
// the paper) plus a leaf table of merged actions and multicast groups.
//
// The package exposes the complete toolchain:
//
//   - ParseSpec reads a message-format specification (P4-style header
//     declarations plus @query_field/@query_counter annotations, Fig. 2).
//   - ParseSubscriptions reads subscription rules (Fig. 1 grammar).
//   - Compile produces a Program: table entries, multicast groups,
//     resource statistics.
//   - GenerateP4 / GenerateEntries render the static P4 pipeline and the
//     dynamic control-plane rules for deployment on a real target.
//   - NewSwitch instantiates a software model of the switching ASIC and
//     NewController manages incremental updates on it.
//   - NewPubSub wires all of it into the in-network publish/subscribe
//     engine of the paper's case study (Fig. 6), consuming MoldUDP64/ITCH
//     market data.
//
// The concrete types live in internal packages; this package re-exports
// them under stable names.
package camus

import (
	"net/http"

	"camus/internal/analyze"
	"camus/internal/compiler"
	"camus/internal/controlplane"
	"camus/internal/core"
	"camus/internal/dataplane"
	"camus/internal/itch"
	"camus/internal/lang"
	"camus/internal/p4gen"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/telemetry"
)

// Observability. Every layer of the toolchain — compiler, control plane,
// switch model, UDP dataplane — records into one shared Telemetry: atomic
// counters and gauges, fixed-bucket latency histograms, and a ring of
// recent control-plane install spans. Create one with NewTelemetry, set
// it (or its Reg) in a component's Config, or hand it to
// Controller.SetTelemetry, and read it back either programmatically
// (Snapshot) or over HTTP (ServeAdmin: Prometheus text at /metrics, a JSON
// Snapshot at /debug/camus, pprof under /debug/pprof/).
type (
	// Telemetry bundles a metrics Registry with a span Tracer.
	Telemetry = telemetry.Telemetry
	// Registry is a set of named counter/gauge/histogram series.
	Registry = telemetry.Registry
	// Snapshot is the unified point-in-time view of a registry: every
	// counter, gauge, and histogram plus recent install spans. The same
	// shape is served at /debug/camus and embedded in camus-bench output.
	Snapshot = telemetry.Snapshot
	// SpanRecord is one recorded control-plane operation.
	SpanRecord = telemetry.SpanRecord
	// AdminServer is a running observability HTTP endpoint.
	AdminServer = telemetry.AdminServer
)

// NewTelemetry creates an empty telemetry bundle (registry + tracer).
func NewTelemetry() *Telemetry { return telemetry.New() }

// TelemetryHandler serves /metrics, /debug/camus, and /debug/pprof/ for
// a telemetry bundle; mount it on any mux.
func TelemetryHandler(t *Telemetry) http.Handler { return telemetry.Handler(t) }

// ServeAdmin starts the observability endpoint on addr in the
// background; Close the returned server to stop it.
func ServeAdmin(addr string, t *Telemetry) (*AdminServer, error) { return telemetry.Serve(addr, t) }

// Language front end.
type (
	// Rule is one condition-action subscription rule.
	Rule = lang.Rule
	// Expr is a subscription condition.
	Expr = lang.Expr
	// Action is a forwarding or state-update action.
	Action = lang.Action
)

// ParseSubscriptions parses newline-separated subscription rules.
func ParseSubscriptions(src string) ([]Rule, error) { return lang.ParseRules(src) }

// ParseSubscription parses a single subscription rule.
func ParseSubscription(src string) (Rule, error) { return lang.ParseRule(src) }

// Fwd builds a forwarding action programmatically.
func Fwd(ports ...int) Action { return lang.Fwd(ports...) }

// Message format specifications.
type (
	// Spec is a parsed message-format specification.
	Spec = spec.Spec
	// MatchKind selects exact/range/ternary matching for a field.
	MatchKind = spec.MatchKind
)

// Match kinds re-exported for programmatic spec construction.
const (
	MatchRange   = spec.MatchRange
	MatchExact   = spec.MatchExact
	MatchTernary = spec.MatchTernary
)

// ParseSpec parses a Fig. 2-style message format specification.
func ParseSpec(src string) (*Spec, error) { return spec.Parse(src) }

// MustParseSpec is ParseSpec for known-good sources; it panics on error.
func MustParseSpec(src string) *Spec { return spec.MustParse(src) }

// Compiler.
type (
	// Program is a compiled subscription set: pipeline tables, actions,
	// multicast groups, and resource statistics.
	Program = compiler.Program
	// CompileOptions tunes the dynamic compilation step.
	CompileOptions = compiler.Options
	// Stats summarizes a program's switch resource usage.
	Stats = compiler.Stats
	// PortSet is an immutable set of output ports: a forwarding
	// decision's, an action's or a multicast group's.
	PortSet = compiler.PortSet
)

// Static analysis of rule sets (camus-vet). An AnalysisGate is the one way
// to vet a rule set: its Admit and AdmitSource analyze the rules in the
// pass that compiles them (unsatisfiable, shadowed, duplicate, ill-typed,
// conflicting rules; resource-budget overruns) and refuse a set the policy
// rejects with an *AnalysisRejection carrying the full diagnostic report.
type (
	// AnalysisGate analyzes and compiles a rule set under a policy.
	AnalysisGate = analyze.Gate
	// AnalysisPolicy selects how strict an analysis-gated compile is.
	AnalysisPolicy = analyze.Policy
	// AnalysisReport is the diagnostics produced by one analysis pass.
	AnalysisReport = analyze.Report
	// AnalysisDiagnostic is one finding with a stable CAMxxx code.
	AnalysisDiagnostic = analyze.Diagnostic
	// AnalysisOptions tunes an analysis pass (budget, pair limits).
	AnalysisOptions = analyze.Options
	// AnalysisRejection is the error an AnalysisGate returns for a
	// rejected rule set.
	AnalysisRejection = analyze.RejectionError
)

// Analysis policies re-exported for NewAnalysisGate.
const (
	// AnalysisOff disables the analysis: the gate only compiles.
	AnalysisOff = analyze.PolicyOff
	// AnalysisLenient rejects rule sets with error diagnostics.
	AnalysisLenient = analyze.PolicyLenient
	// AnalysisStrict rejects on warnings too.
	AnalysisStrict = analyze.PolicyStrict
)

// NewAnalysisGate builds an admission gate for rule sets over sp.
func NewAnalysisGate(sp *Spec, opts AnalysisOptions, p AnalysisPolicy) *AnalysisGate {
	return analyze.NewGate(sp, opts, p)
}

// Analyze runs the camus-vet static analysis over parsed rules, returning
// every diagnostic; it installs nothing.
func Analyze(sp *Spec, rules []Rule, opts AnalysisOptions) *AnalysisReport {
	return analyze.Rules(sp, rules, opts)
}

// Compile compiles parsed rules against a spec.
func Compile(sp *Spec, rules []Rule, opts CompileOptions) (*Program, error) {
	return compiler.Compile(sp, rules, opts)
}

// CompileSource parses and compiles subscription source text.
func CompileSource(sp *Spec, src string, opts CompileOptions) (*Program, error) {
	return compiler.CompileSource(sp, src, opts)
}

// GenerateP4 renders the static pipeline of a program as P4₁₄ source.
func GenerateP4(p *Program) string { return p4gen.GenerateP4(p) }

// GenerateEntries renders a program's control-plane rules in a
// line-oriented loadable form.
func GenerateEntries(p *Program) string { return p4gen.GenerateEntries(p) }

// Switch model and control plane.
type (
	// Switch is the software model of the programmable ASIC.
	Switch = pipeline.Switch
	// SwitchConfig sizes the modeled device.
	SwitchConfig = pipeline.Config
	// SwitchResult is a per-packet forwarding decision.
	SwitchResult = pipeline.Result
	// Controller installs and incrementally updates programs.
	Controller = controlplane.Controller
	// UpdateDelta reports the device writes an update needed.
	UpdateDelta = controlplane.Delta
)

// DefaultSwitchConfig models the paper's 32-port Tofino-class device.
func DefaultSwitchConfig() SwitchConfig { return pipeline.DefaultConfig() }

// NewSwitch instantiates a switch with a program installed.
func NewSwitch(p *Program, cfg SwitchConfig) (*Switch, error) { return pipeline.New(p, cfg) }

// NewController manages incremental updates for a switch.
func NewController(sw *Switch) *Controller { return controlplane.NewController(sw) }

// In-network pub/sub engine (the paper's case study).
type (
	// PubSub is the in-network publish/subscribe engine.
	PubSub = core.PubSub
	// PubSubConfig bundles the engine's knobs.
	PubSubConfig = core.Config
	// Delivery is one message's forwarding outcome.
	Delivery = core.Delivery
)

// NewPubSub creates a pub/sub deployment for a spec.
func NewPubSub(sp *Spec, cfg PubSubConfig) (*PubSub, error) { return core.NewPubSub(sp, cfg) }

// ITCH market-data protocol.
type (
	// AddOrder is the ITCH 5.0 add-order message.
	AddOrder = itch.AddOrder
	// MoldPacket is a MoldUDP64 datagram.
	MoldPacket = itch.MoldPacket
)

// Trace is a packet's recorded walk through the compiled tables.
type Trace = compiler.Trace

// SuggestFieldOrder analyzes rules and returns a good BDD field order
// (equality discriminators first).
func SuggestFieldOrder(sp *Spec, rules []Rule) ([]string, error) {
	return compiler.SuggestFieldOrder(sp, rules)
}

// ApplySuggestedOrder installs the suggested order on the spec.
func ApplySuggestedOrder(sp *Spec, rules []Rule) ([]string, error) {
	return compiler.ApplySuggestedOrder(sp, rules)
}

// UDP dataplane: run a compiled program as a real software switch.
type (
	// UDPSwitch forwards MoldUDP64/ITCH datagrams between UDP sockets
	// according to the installed subscriptions.
	UDPSwitch = dataplane.Switch
	// UDPSwitchConfig configures ListenUDP.
	UDPSwitchConfig = dataplane.Config
	// SubscriberConfig describes one subscriber endpoint for
	// UDPSwitch.Subscribe.
	SubscriberConfig = dataplane.SubscriberConfig
	// Subscription is the owning handle for one attached subscriber;
	// Close detaches it.
	Subscription = dataplane.Subscription
)

// ListenUDP binds the dataplane's ingress socket and installs the initial
// subscription set.
func ListenUDP(cfg UDPSwitchConfig) (*UDPSwitch, error) { return dataplane.Listen(cfg) }
