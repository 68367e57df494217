package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestFiguresTableDrivesEverything swaps in a two-entry table and checks
// that dispatch, `-fig all`, both help strings and both usage errors are
// read off it — there is no second list to fall out of step.
func TestFiguresTableDrivesEverything(t *testing.T) {
	var ran []string
	rec := func(name string) func(io.Writer, options) error {
		return func(w io.Writer, o options) error {
			ran = append(ran, fmt.Sprintf("%s csv=%v", name, o.csv))
			return nil
		}
	}
	saved := figures
	figures = []figure{{"one", true, rec("one")}, {"two", false, rec("two")}}
	defer func() { figures = saved }()

	for _, tc := range []struct {
		args   []string
		status int
		ran    []string
		stderr string // substring
	}{
		{[]string{"-fig", "all"}, 0, []string{"one csv=false", "two csv=false"}, ""},
		{nil, 0, []string{"one csv=false", "two csv=false"}, ""}, // all is the default
		{[]string{"-fig", "two"}, 0, []string{"two csv=false"}, ""},
		{[]string{"-fig", "one", "-csv"}, 0, []string{"one csv=true"}, ""},
		{[]string{"-fig", "two", "-csv"}, 2, nil, `"two" has no CSV form (-csv works with one)`},
		{[]string{"-fig", "all", "-csv"}, 2, nil, `"two" has no CSV form`},
		{[]string{"-fig", "nosuch"}, 2, nil, `unknown figure "nosuch" (want one, two, or all)`},
		{[]string{"-sizes", "10,x"}, 2, nil, `-sizes: "x"`},
		{[]string{"-h"}, 0, nil, "figure to regenerate: one, two, or all"},
		{[]string{"-h"}, 0, nil, "instead of aligned tables (one)"},
	} {
		ran = nil
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.status {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, got, tc.status, stderr.String())
		}
		if !reflect.DeepEqual(ran, tc.ran) {
			t.Errorf("%v: ran %v, want %v", tc.args, ran, tc.ran)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}

// TestProvenanceLeadsEveryFigure runs a real figure both ways: the first
// line is the stamp (a comment under -csv), and the real table has the
// paper's figures, vet included, each once.
func TestProvenanceLeadsEveryFigure(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		prefix string
		second string
	}{
		{[]string{"-fig", "5a", "-seed", "3"}, "camus-bench: cpus=", "Figure 5a"},
		{[]string{"-fig", "5a", "-seed", "3", "-csv"}, "# camus-bench: cpus=", "subscriptions,entries"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, got, stderr.String())
		}
		lines := strings.SplitN(stdout.String(), "\n", 3)
		if len(lines) < 3 || !strings.HasPrefix(lines[0], tc.prefix) || !strings.HasPrefix(lines[1], tc.second) {
			t.Fatalf("%v: output starts %q", tc.args, lines)
		}
		for _, field := range []string{" GOMAXPROCS=", " go1.", " git=", " seed=3"} {
			if !strings.Contains(lines[0], field) {
				t.Errorf("%v: stamp %q lacks %q", tc.args, lines[0], field)
			}
		}
	}

	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.name] || f.name == "all" || f.run == nil {
			t.Errorf("figures entry %q is duplicated, reserved or has no run func", f.name)
		}
		seen[f.name] = true
	}
	for _, want := range []string{"5a", "5b", "5c", "7a", "7b", "throughput", "ablation", "order", "fanout", "fabric", "vet"} {
		if !seen[want] {
			t.Errorf("figures table lost %q", want)
		}
	}
}

// TestFiguresMatchExperimentsDoc: the figures that print no wall-clock
// column are their own golden file. Each, at seed 1 and below its stamp
// line, must appear verbatim in EXPERIMENTS.md — so a change that moves a
// simulated number, or a doc that quotes a table the code no longer
// prints, fails here.
func TestFiguresMatchExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"5a", "5b", "7a", "7b", "fanout", "fabric"} {
		t.Run(fig, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run([]string{"-fig", fig, "-seed", "1"}, &stdout, &stderr); got != 0 {
				t.Fatalf("exit %d: %s", got, stderr.String())
			}
			_, table, _ := strings.Cut(stdout.String(), "\n")
			table = strings.TrimSpace(table)
			if table == "" || !bytes.Contains(doc, []byte(table)) {
				t.Fatalf("-fig %s no longer prints the table EXPERIMENTS.md quotes:\n%s", fig, table)
			}
		})
	}
}
