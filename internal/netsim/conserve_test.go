package netsim

import "testing"

// Conserve asserts every ledger of a run topology balances: each link's
// under its fault policy, each switch node's in messages. It is exported
// to the external tests that build whole topologies (package netsim_test).
func Conserve(t testing.TB, topo *Topology) {
	t.Helper()
	for _, l := range topo.Links {
		checkLink(t, l)
	}
	for i, n := range topo.Switches {
		if s := n.Stats; s.In != s.Forwarded+s.Filtered+s.Unwired {
			t.Fatalf("switch node %d: %d messages in, %d forwarded + %d filtered + %d unwired", i, s.In, s.Forwarded, s.Filtered, s.Unwired)
		}
	}
}

// checkLink asserts one link's ledger: a lossy (or clean) link delivers
// what it was offered minus drops plus duplicates, a recovering link
// delivers everything exactly once.
func checkLink(t testing.TB, l *Link) {
	t.Helper()
	s := l.Stats
	want := s.Delivered + s.Dropped - s.Duplicated
	if l.recovering {
		want = s.Delivered
	}
	if s.Offered != want {
		t.Fatalf("link ledger does not balance (recovering=%v): %+v", l.recovering, s)
	}
}
