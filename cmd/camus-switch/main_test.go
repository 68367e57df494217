package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestUnreadFlags: each mode names exactly the flags set on the command
// line that it would otherwise drop.
func TestUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		set          []string
		demo, fabric bool
		mode         string
		unread       []string
	}{
		{[]string{"rules", "workers", "admin", "port"}, false, false, "a single switch", nil},
		{[]string{"workers", "fabric-leaves", "fabric-spines"}, false, false, "a single switch", []string{"fabric-leaves", "fabric-spines"}},
		{[]string{"fabric", "heartbeat"}, false, true, "-fabric", []string{"heartbeat"}},
		{[]string{"fabric", "listen", "retx", "session", "retx-buffer", "fabric-leaves", "workers"}, false, true, "-fabric", []string{"listen", "retx", "session", "retx-buffer"}},
		{[]string{"demo", "spec"}, true, false, "-demo", nil},
		{[]string{"demo", "rules", "fabric"}, true, true, "-demo", []string{"rules", "fabric"}},
	} {
		visit := func(fn func(*flag.Flag)) {
			for _, name := range tc.set {
				fn(&flag.Flag{Name: name})
			}
		}
		mode, unread := unreadFlags(visit, tc.demo, tc.fabric)
		if mode != tc.mode || !reflect.DeepEqual(unread, tc.unread) {
			t.Errorf("unreadFlags(%v, demo=%v, fabric=%v) = %q, %v; want %q, %v", tc.set, tc.demo, tc.fabric, mode, unread, tc.mode, tc.unread)
		}
	}
}
