package controlplane

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestActionIdentityIsContent: an action set's identity is the sum of what it
// does, not of the numbers one compile gave its ports and updates. One rule
// set compiled in two rule orders, whose arenas meet ports in opposite
// orders, has the same sum for every action, and installing one over the
// other writes nothing, also where each is one terminal; moving one port of
// one group adds and removes exactly that group.
func TestActionIdentityIsContent(t *testing.T) {
	var rules []string
	for i := 0; i < 60; i++ {
		fwd := fmt.Sprintf("fwd(%d,%d)", 1+i%7, 100+i%5)
		if i%4 == 0 {
			fwd = fmt.Sprintf("fwd(%d)", 1+i%9)
		}
		rules = append(rules, fmt.Sprintf("stock == S%03d && price > %d : %s", i%20, 10*(i%6), fwd))
	}
	rules = append(rules, "stock == S005 && price < 5 : drop()", "stock == XTRA : fwd(64,9,200)")
	reversed := slices.Clone(rules)
	slices.Reverse(reversed)
	join := func(rs []string) string { return strings.Join(rs, "\n") + "\n" }

	a, b := compile(t, join(rules)), compile(t, join(reversed))
	byKey := map[string][2]uint64{}
	for _, as := range a.Actions {
		byKey[as.Key()] = as.Sum()
	}
	if len(b.Actions) != len(a.Actions) || len(b.Groups) != len(a.Groups) || len(a.Groups) < 10 {
		t.Fatalf("%d actions and %d groups, reversed %d and %d", len(a.Actions), len(a.Groups), len(b.Actions), len(b.Groups))
	}
	for _, as := range b.Actions {
		if sum, ok := byKey[as.Key()]; !ok || sum != as.Sum() {
			t.Errorf("%s: sum %x in rule order, %x reversed (present %v)", as, sum, as.Sum(), ok)
		}
	}

	if d := DiffPrograms(a, b); d.Writes() != 0 || d.Groups.Reused != len(a.Groups) {
		t.Errorf("reversed rule order over rule order: %s", d)
	}
	one, other := compile(t, "price >= 0 : fwd(3)\nprice >= 0 : fwd(4,9)\n"), compile(t, "price >= 0 : fwd(9,4)\nprice >= 0 : fwd(3)\n")
	if d := DiffPrograms(one, other); d.Writes() != 0 || d.Groups.Reused != 1 {
		t.Errorf("one terminal over itself in another order: %s", d)
	}

	moved := slices.Clone(rules)
	moved[len(moved)-1] = "stock == XTRA : fwd(64,9,201)"
	c := compile(t, join(moved))
	if d := DiffPrograms(a, c); d.Groups.Added != 1 || d.Groups.Removed != 1 || d.Groups.Reused != len(a.Groups)-1 {
		t.Errorf("one port of one group moved: %s", d)
	}
}
