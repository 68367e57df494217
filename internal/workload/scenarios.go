package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// Stateful scenario workloads: two applications beyond market data that
// exercise keyed register banks (state addressed by (variable, flow
// key)) end to end. Each Scenario bundles a message-format spec, a
// subscription set using var[key] reads and updates, and a deterministic
// feed generator; they are the fixture of the pipeline's differential
// oracle (TestKeyedDifferentialOracle/scenarios).
//
//   - IoT threshold-over-window: sensors publish temperature readings;
//     the switch forwards a reading to the alert port when the sensor's
//     average over the current 1s tumbling window exceeds a threshold
//     ("fwd if avg(temp) > X in 1s").
//   - DDoS heavy-hitter: per-source packet counters over a 1s window;
//     sources crossing the threshold are diverted to the alert port
//     while the rest of the traffic forwards normally.
type Scenario struct {
	Name     string
	SpecSrc  string
	RulesSrc string

	// KeyField is the header field the subscriptions key state by; the
	// experiments shard packets to lanes by its value (the dataplane's
	// locate-keyed affinity, applied to the scenario's flow key).
	KeyField string
	// ForwardPort and AlertPort are where the rules send normal and
	// threshold-crossing traffic.
	ForwardPort int
	AlertPort   int

	kind scenarioKind
}

type scenarioKind int

const (
	kindIoT scenarioKind = iota
	kindDDoS
)

// Scenario thresholds and window, shared with the rule sources below.
const (
	IoTThreshold  = 70      // avg(temp) alert level
	DDoSThreshold = 1000    // per-source packets per window
	ScenarioWinUS = 1000000 // 1s tumbling window, in the spec's µs unit
)

// IoTScenario is the threshold-over-window workload.
func IoTScenario() Scenario {
	return Scenario{
		Name: "iot-threshold",
		SpecSrc: fmt.Sprintf(`
header_type iot_t {
    fields {
        sensor_id: 32;
        metric: 16;
        value: 32;
    }
}
header iot_t iot;
@query_field(iot.sensor_id)
@query_field(iot.metric)
@query_field(iot.value)
@query_counter(temp, %d)
`, ScenarioWinUS),
		RulesSrc: fmt.Sprintf(`
iot.metric == 1 && avg(temp)[iot.sensor_id] > %d : fwd(2)
iot.metric == 1 && avg(temp)[iot.sensor_id] <= %d : fwd(1)
iot.metric == 1 : temp[iot.sensor_id] <- sample(iot.value)
`, IoTThreshold, IoTThreshold),
		KeyField:    "iot.sensor_id",
		ForwardPort: 1,
		AlertPort:   2,
		kind:        kindIoT,
	}
}

// DDoSScenario is the heavy-hitter workload.
func DDoSScenario() Scenario {
	return Scenario{
		Name: "ddos-heavy-hitter",
		SpecSrc: fmt.Sprintf(`
header_type ip_t {
    fields {
        src: 32;
        dst: 32;
        proto: 16;
        len: 16;
    }
}
header ip_t ip;
@query_field(ip.src)
@query_field(ip.dst)
@query_field(ip.len)
@query_counter(hits, %d)
`, ScenarioWinUS),
		RulesSrc: fmt.Sprintf(`
hits[ip.src] >= %d : fwd(2)
hits[ip.src] < %d : fwd(1)
true : hits[ip.src] <- count()
`, DDoSThreshold, DDoSThreshold),
		KeyField:    "ip.src",
		ForwardPort: 1,
		AlertPort:   2,
		kind:        kindDDoS,
	}
}

// Scenarios returns both stateful scenario workloads.
func Scenarios() []Scenario { return []Scenario{IoTScenario(), DDoSScenario()} }

// ScenarioFeedConfig parameterizes a scenario feed.
type ScenarioFeedConfig struct {
	Keys    int     // distinct flow keys (sensors / sources); default 256
	Skew    float64 // Zipf s over key popularity (>1); default 1.3
	Rate    float64 // packets per second of feed time; default 100000
	HotFrac float64 // IoT: fraction of sensors running hot; default 0.1
	Seed    int64
}

func (c *ScenarioFeedConfig) defaults() {
	if c.Keys <= 0 {
		c.Keys = 256
	}
	if c.Skew <= 1 {
		c.Skew = 1.3
	}
	if c.Rate <= 0 {
		c.Rate = 100000
	}
	if c.HotFrac <= 0 {
		c.HotFrac = 0.1
	}
}

// ScenarioGen produces the scenario's packets as field-value rows
// aligned to a compiled program's value vector: lookup maps the
// scenario's header fields to their slots once, and Next fills a row
// and returns its arrival time. Deterministic given the seed.
type ScenarioGen struct {
	sc   Scenario
	cfg  ScenarioFeedConfig
	r    *rand.Rand
	zipf *rand.Zipf
	step time.Duration
	i    int

	// resolved value-vector slots; -1 when the program dropped a field
	keyIdx, metricIdx, valueIdx int // IoT
	srcIdx, dstIdx, lenIdx      int // DDoS

	hot int // IoT: sensors [0, hot) run hot
}

// NewGen builds a generator for the scenario. lookup resolves a header
// field name to its index in the evaluated value vector (or false when
// the compiled program does not carry the field).
func (sc Scenario) NewGen(cfg ScenarioFeedConfig, lookup func(name string) (int, bool)) *ScenarioGen {
	cfg.defaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	idx := func(name string) int {
		if i, ok := lookup(name); ok {
			return i
		}
		return -1
	}
	g := &ScenarioGen{
		sc:   sc,
		cfg:  cfg,
		r:    r,
		zipf: rand.NewZipf(r, cfg.Skew, 1, uint64(cfg.Keys-1)),
		step: time.Duration(float64(time.Second) / cfg.Rate),
		hot:  int(float64(cfg.Keys) * cfg.HotFrac),
	}
	switch sc.kind {
	case kindIoT:
		g.keyIdx = idx("iot.sensor_id")
		g.metricIdx = idx("iot.metric")
		g.valueIdx = idx("iot.value")
	case kindDDoS:
		g.srcIdx = idx("ip.src")
		g.dstIdx = idx("ip.dst")
		g.lenIdx = idx("ip.len")
	}
	return g
}

// Key returns the flow key the row just produced by Next carries —
// the value experiments shard lanes by.
func (g *ScenarioGen) Key(vals []uint64) uint64 {
	switch g.sc.kind {
	case kindIoT:
		if g.keyIdx >= 0 {
			return vals[g.keyIdx]
		}
	case kindDDoS:
		if g.srcIdx >= 0 {
			return vals[g.srcIdx]
		}
	}
	return 0
}

func set(vals []uint64, idx int, v uint64) {
	if idx >= 0 {
		vals[idx] = v
	}
}

// Next fills one packet's field values and returns its arrival time.
// The feed is evenly paced at the configured rate, so a run longer than
// the scenario window crosses tumbling-window boundaries.
func (g *ScenarioGen) Next(vals []uint64) time.Duration {
	at := time.Duration(g.i) * g.step
	g.i++
	key := g.zipf.Uint64()
	switch g.sc.kind {
	case kindIoT:
		set(vals, g.keyIdx, key)
		// 80% temperature readings (metric 1), the rest other telemetry
		// the subscriptions ignore.
		metric := uint64(1)
		if g.r.Intn(5) == 0 {
			metric = 2
		}
		set(vals, g.metricIdx, metric)
		// Hot sensors average ~85, cold ~45, ±10 of jitter, against the
		// threshold of 70: window averages separate cleanly.
		mean := uint64(45)
		if int(key) < g.hot {
			mean = 85
		}
		set(vals, g.valueIdx, mean-10+uint64(g.r.Intn(21)))
	case kindDDoS:
		set(vals, g.srcIdx, key)
		set(vals, g.dstIdx, uint64(g.r.Intn(1024)))
		set(vals, g.lenIdx, uint64(64+g.r.Intn(1437)))
	}
	return at
}
