package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per metric name,
// counter/gauge samples as plain values, histograms as cumulative
// _bucket{le=...} samples plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	all := r.snapshotSeries()

	// TYPE lines are per metric name; series of one name must be
	// grouped together in the output. Preserve first-registration order
	// of names, then key order within a name for determinism.
	byName := make(map[string][]*series)
	var names []string
	for _, s := range all {
		if _, ok := byName[s.name]; !ok {
			names = append(names, s.name)
		}
		byName[s.name] = append(byName[s.name], s)
	}

	for _, name := range names {
		group := byName[name]
		sort.Slice(group, func(i, j int) bool { return group[i].key < group[j].key })
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, promType(group[0].kind)); err != nil {
			return err
		}
		for _, s := range group {
			if err := writeSeries(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func promType(k metricKind) string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

func writeSeries(w io.Writer, s *series) error {
	switch s.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", s.key, s.counter.Load())
		return err
	case kindCounterFunc:
		v := s.fn()
		if v < 0 {
			v = 0
		}
		_, err := fmt.Fprintf(w, "%s %s\n", s.key, formatFloat(v))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %d\n", s.key, s.gauge.Load())
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s %s\n", s.key, formatFloat(s.fn()))
		return err
	case kindHistogram:
		return writeHistogram(w, s)
	}
	return nil
}

func writeHistogram(w io.Writer, s *series) error {
	snap := s.hist.Snapshot()
	for i, cum := range snap.Cumulative {
		le := "+Inf"
		if i < len(snap.UpperBoundsSeconds) {
			le = formatFloat(snap.UpperBoundsSeconds[i])
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(s.name, s.key, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", suffixKey(s.name, s.key, "_sum"), formatFloat(snap.SumSeconds)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", suffixKey(s.name, s.key, "_count"), snap.Count)
	return err
}

// withLabel renders name_bucket with the series' labels plus one extra
// label appended (the histogram's le).
func withLabel(name, key, extraKey, extraVal string) string {
	extra := extraKey + `="` + extraVal + `"`
	if labels, ok := strings.CutPrefix(key, name+"{"); ok {
		return name + "_bucket{" + strings.TrimSuffix(labels, "}") + "," + extra + "}"
	}
	return name + "_bucket{" + extra + "}"
}

// suffixKey turns name{labels} into name<suffix>{labels}.
func suffixKey(name, key, suffix string) string {
	if labels, ok := strings.CutPrefix(key, name+"{"); ok {
		return name + suffix + "{" + labels
	}
	return name + suffix
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
