package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnwiredSubscriptionFails: rules that forward the target to a port
// with no subscriber used to print an all-zero Camus curve and exit 0.
// Now the run fails and names the port; the same flags with the rules on
// the measured port still print the figure.
func TestUnwiredSubscriptionFails(t *testing.T) {
	for _, tc := range []struct {
		subs   string
		status int
		stdout string // substring
		stderr string // substring
	}{
		{"stock == GOOGL : fwd(2)", 1, "", "port(s) [2], which nothing is wired to"},
		{"stock == GOOGL : fwd(1)", 0, "synthetic feed, target GOOGL: ", ""},
		{"stock == GOOGL : fwd(1)\nstock == MSFT : fwd(7)", 0, "camus:    n=", ""}, // other ports may dangle
		{"stock == : fwd(1)", 1, "", "camus-sim: "},
	} {
		var stdout, stderr bytes.Buffer
		got := run([]string{"-feed", "synthetic", "-subs", tc.subs}, &stdout, &stderr)
		if got != tc.status {
			t.Errorf("%q: exit %d, want %d (stderr %q)", tc.subs, got, tc.status, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.stdout) || (tc.status != 0 && stdout.Len() != 0) {
			t.Errorf("%q: stdout %q, want %q", tc.subs, stdout.String(), tc.stdout)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%q: stderr %q lacks %q", tc.subs, stderr.String(), tc.stderr)
		}
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-feed", "nosuch"}, &stdout, &stderr); got != 2 {
		t.Errorf("unknown feed: exit %d, want 2", got)
	}
}
