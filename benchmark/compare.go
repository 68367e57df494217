package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readRuns groups a result file's values by workload and metric, one value
// per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: %s seed %d has failed operations (%s); its numbers prove nothing", path, r.Workload, r.Seed, r.Verdict)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints one row per (workload, metric) present in both
// files. Verdicts apply each end-to-end metric's own bound and direction:
// "unresolved" when either side's quartile spread is wider than the bound,
// "worse" when b's median is worse than a's by more than the bound,
// "better" when it is better by more than a's own spread, otherwise
// "same". Per-layer metrics have no bound and get no verdict. It reports
// whether any row is worse.
func compareFiles(manifestPath, a, b string, w io.Writer) (anyWorse bool, err error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	ra, err := readRuns(a)
	if err != nil {
		return false, err
	}
	rb, err := readRuns(b)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3] n\tspread\tb median [q1, q3] n\tspread\tb vs a\tbound\tverdict")
	for _, wl := range m.Workloads {
		for _, mm := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
			va, vb := ra[wl.Name][mm.Name], rb[wl.Name][mm.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := relative(a3-a1, a2), relative(b3-b1, b2)
			change := relative(b2-a2, a2)
			worseBy := change
			if mm.Better == "higher" {
				worseBy = -worseBy
			}
			verdict, bound := "", ""
			if mm.Bound != nil {
				bound = fmt.Sprintf("%.2f", *mm.Bound)
				switch {
				case spreadA > *mm.Bound || spreadB > *mm.Bound:
					verdict = "unresolved"
				case worseBy > *mm.Bound:
					verdict, anyWorse = "worse", true
				case -worseBy > spreadA && worseBy < 0:
					verdict = "better"
				default:
					verdict = "same"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] %d\t%.1f%%\t%.6g [%.6g, %.6g] %d\t%.1f%%\t%+.1f%%\t%s\t%s\n",
				wl.Name, mm.Name, mm.Unit, a2, a1, a3, len(va), spreadA*100, b2, b1, b3, len(vb), spreadB*100, change*100, bound, verdict)
		}
	}
	return anyWorse, tw.Flush()
}

// relative is d as a share of base, 0 when both are 0.
func relative(d, base float64) float64 {
	if base == 0 {
		if d == 0 {
			return 0
		}
		return 1
	}
	if base < 0 {
		base = -base
	}
	return d / base
}
