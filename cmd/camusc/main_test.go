package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputGolden holds camusc's views of the checked-in market rules —
// the diagram, the tables, the statistics and a packet's explanation —
// byte for byte against testdata/. A change that moves them on purpose
// rewrites the golden with the same flags: camusc -spec … -rules … -dot >
// testdata/market.dot.
func TestOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		flags  []string
	}{
		{"market.dot", []string{"-dot"}},
		{"market.dump", []string{"-dump"}},
		{"market.stats", []string{"-stats"}},
		{"market.explain", []string{"-explain", "stock=GOOGL,price=55"}},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-spec", "../../examples/rules/itch.spec", "-rules", "../../examples/rules/market.rules"}, tc.flags...)
		if status := run(args, &stdout, &stderr); status != 0 || stderr.Len() != 0 {
			t.Fatalf("%v: exit %d, stderr %q", tc.flags, status, stderr.String())
		}
		path := filepath.Join("testdata", tc.golden)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: output differs from %s:\n%s", tc.flags, path, stdout.String())
		}
	}
}

// TestExitStatus: -h prints the usage and exits 0, a usage error exits 2,
// and a failure to read or compile exits 1 naming the cause.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-spec", "../../examples/rules/itch.spec"}, 2, "-rules"},
		{[]string{"-h"}, 0, "Usage of camusc"},
		{[]string{"-nosuch"}, 2, "-nosuch"},
		{[]string{"-spec", "../../examples/rules/itch.spec", "-rules", "testdata/nosuch.rules"}, 1, "camusc: open testdata/nosuch.rules"},
		{[]string{"-spec", "../../examples/rules/itch.spec", "-rules", "../../examples/rules/market.rules", "-explain", "nosuch=1"}, 1, "camusc: "},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(tc.args, &stdout, &stderr); status != tc.status || !bytes.Contains(stderr.Bytes(), []byte(tc.stderr)) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", tc.args, status, stderr.String(), tc.status, tc.stderr)
		}
	}
}
