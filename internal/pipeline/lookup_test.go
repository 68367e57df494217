package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"camus/internal/compiler"
)

// TestLookupTableMatchesCompilerLookup checks the optimized runtime
// lookup structures (hash maps + binary search) against the compiler's
// reference linear-scan Lookup on random programs and probes.
func TestLookupTableMatchesCompilerLookup(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		var b strings.Builder
		for i := 0; i < 30; i++ {
			sym := testSymbols[r.Intn(len(testSymbols))]
			switch r.Intn(3) {
			case 0:
				fmt.Fprintf(&b, "stock == %s : fwd(%d)\n", sym, 1+r.Intn(8))
			case 1:
				fmt.Fprintf(&b, "stock == %s && price > %d : fwd(%d)\n", sym, r.Intn(1000), 1+r.Intn(8))
			default:
				fmt.Fprintf(&b, "price < %d && shares > %d : fwd(%d)\n", r.Intn(1000), r.Intn(500), 1+r.Intn(8))
			}
		}
		sw, prog, _ := buildSwitch(t, b.String())
		for fi, tab := range prog.Tables {
			lt := sw.inst.Load().tables[fi]
			for probe := 0; probe < 500; probe++ {
				state := r.Intn(prog.NumStates() + 2)
				value := r.Uint64()
				if max := prog.Fields[fi].Max; max != ^uint64(0) {
					value %= max + 1
				}
				wantE, wantOK := tab.Lookup(state, value)
				gotNext, gotOK := lt.lookup(state, value)
				if gotOK != wantOK {
					t.Fatalf("trial %d table %s: hit mismatch at state=%d value=%d", trial, tab.Name, state, value)
				}
				if gotOK && gotNext != wantE.Next {
					t.Fatalf("trial %d table %s: next %d != %d at state=%d value=%d",
						trial, tab.Name, gotNext, wantE.Next, state, value)
				}
			}
		}
	}
}

// genDifferentialRules emits a random rule set exercising every lookup
// encoding: exact stock entries, overlapping price/shares ranges, and
// enough distinct price bounds that domain compression kicks in (the
// codec path), so the differential tests cover codec-compressed fields.
func genDifferentialRules(r *rand.Rand, nRules int, symbols []string) string {
	var b strings.Builder
	for i := 0; i < nRules; i++ {
		sym := symbols[r.Intn(len(symbols))]
		port := 1 + r.Intn(8)
		switch r.Intn(5) {
		case 0:
			fmt.Fprintf(&b, "stock == %s : fwd(%d)\n", sym, port)
		case 1:
			fmt.Fprintf(&b, "stock == %s && price > %d : fwd(%d)\n", sym, r.Intn(1000), port)
		case 2:
			// Overlapping windows: many rules share the [lo, lo+w] shape
			// with staggered lo, so the compiled ranges overlap heavily.
			lo := r.Intn(900)
			fmt.Fprintf(&b, "price > %d && price < %d : fwd(%d)\n", lo, lo+50+r.Intn(200), port)
		case 3:
			fmt.Fprintf(&b, "price < %d && shares > %d : fwd(%d)\n", r.Intn(1000), r.Intn(500), port)
		default:
			fmt.Fprintf(&b, "stock == %s && shares >= %d && shares <= %d : fwd(%d)\n",
				sym, r.Intn(250), 250+r.Intn(250), port)
		}
	}
	return b.String()
}

// probeTable cross-checks one compiled table's three implementations —
// the flattened arrays (flatlookup.go), the retired map-based runtime
// (maplookup_test.go), and the compiler's linear-scan reference — at one
// (state, value) probe.
func probeTable(t *testing.T, tag string, tab *compiler.Table, flat *lookupTable, ref *mapLookupTable, state int, value uint64) {
	t.Helper()
	wantE, wantOK := tab.Lookup(state, value)
	gotNext, gotOK := flat.lookup(state, value)
	refNext, refOK := ref.lookup(state, value)
	if gotOK != wantOK || refOK != wantOK {
		t.Fatalf("%s table %s: hit mismatch at state=%d value=%d: flat=%v map=%v compiler=%v",
			tag, tab.Name, state, value, gotOK, refOK, wantOK)
	}
	if gotOK && (gotNext != wantE.Next || refNext != wantE.Next) {
		t.Fatalf("%s table %s: next flat=%d map=%d compiler=%d at state=%d value=%d",
			tag, tab.Name, gotNext, refNext, wantE.Next, state, value)
	}
}

// TestFlatLookupDifferentialQuick quick-checks the flattened lookup
// tables against both references on random programs with overlapping
// ranges and codec-compressed fields, probing random points plus every
// entry's Lo/Hi boundaries and their off-by-one neighbours.
func TestFlatLookupDifferentialQuick(t *testing.T) {
	r := rand.New(rand.NewSource(1729))
	for trial := 0; trial < 6; trial++ {
		rules := genDifferentialRules(r, 30+r.Intn(60), testSymbols)
		sw, prog, _ := buildSwitch(t, rules)
		tag := fmt.Sprintf("trial %d", trial)
		in := sw.inst.Load()
		codecSeen := false
		for fi, tab := range prog.Tables {
			flat := &in.tables[fi]
			refv := buildMapLookup(tab)
			ref := &refv
			if tab.Codec != nil {
				codecSeen = true
			}
			// Random probes, including out-of-range states.
			for probe := 0; probe < 400; probe++ {
				state := r.Intn(prog.NumStates()+4) - 1
				value := r.Uint64()
				if max := prog.Fields[fi].Max; max != ^uint64(0) {
					value %= max + 1
				}
				probeTable(t, tag, tab, flat, ref, state, value)
			}
			// Boundary probes around entries (sampled: the compiler-side
			// linear-scan reference makes exhaustive probing quadratic).
			stride := 1 + len(tab.Entries)/250
			for ei := 0; ei < len(tab.Entries); ei += stride {
				e := tab.Entries[ei]
				for _, v := range []uint64{e.Lo - 1, e.Lo, e.Hi, e.Hi + 1} {
					probeTable(t, tag, tab, flat, ref, e.State, v)
					probeTable(t, tag, tab, flat, ref, e.State+1, v)
				}
			}
		}
		if trial == 0 && !codecSeen {
			t.Log("warning: no codec-compressed table in trial 0 workload")
		}
	}
}

// TestFlatLookupOpenAddressed forces the open-addressed exact encoding
// (cardinality above openAddrMinEntries) and cross-checks it against the
// references for every installed symbol and a fuzz of misses.
func TestFlatLookupOpenAddressed(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var b strings.Builder
	syms := make([]string, 0, 3*openAddrMinEntries)
	for i := 0; i < cap(syms); i++ {
		sym := fmt.Sprintf("S%03d", i)
		syms = append(syms, sym)
		fmt.Fprintf(&b, "stock == %s : fwd(%d)\n", sym, 1+i%8)
	}
	sw, prog, sp := buildSwitch(t, b.String())
	in := sw.inst.Load()
	var stockTab *compiler.Table
	var flat *lookupTable
	for fi, tab := range prog.Tables {
		if strings.Contains(tab.Name, "stock") {
			stockTab, flat = tab, &in.tables[fi]
		}
	}
	if stockTab == nil {
		t.Fatal("no stock table compiled")
	}
	if flat.oaNext == nil {
		t.Fatalf("stock table with %d entries did not use the open-addressed encoding", len(stockTab.Entries))
	}
	refv := buildMapLookup(stockTab)
	ref := &refv
	for _, sym := range syms {
		v := stockVal(t, sp, sym)
		for st := -1; st <= prog.NumStates()+1; st++ {
			probeTable(t, "oa", stockTab, flat, ref, st, v)
		}
	}
	for probe := 0; probe < 5000; probe++ {
		probeTable(t, "oa-miss", stockTab, flat, ref, r.Intn(prog.NumStates()+2), r.Uint64())
	}
}

// TestProcessMatchesEvaluate runs whole packets through Process and
// ProcessBatch and checks the decisions against the compiler's reference
// Evaluate on random stateless programs.
func TestProcessMatchesEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		rules := genDifferentialRules(r, 40+r.Intn(60), testSymbols)
		sw, prog, sp := buildSwitch(t, rules)
		const batch = 64
		values := make([][]uint64, batch)
		now := make([]time.Duration, batch)
		out := make([]Result, batch)
		for round := 0; round < 20; round++ {
			for i := 0; i < batch; i++ {
				stock := stockVal(t, sp, testSymbols[r.Intn(len(testSymbols))])
				values[i] = packetValues(prog, r.Uint64()%600, stock, r.Uint64()%1100)
			}
			sw.ProcessBatch(values, now, out)
			for i := 0; i < batch; i++ {
				want := prog.Evaluate(append([]uint64(nil), values[i]...))
				single := sw.Process(values[i], 0)
				if out[i].Dropped != (want.Ports.Len() == 0) || single.Dropped != out[i].Dropped {
					t.Fatalf("trial %d: drop mismatch: batch=%+v single=%+v want=%+v", trial, out[i], single, want)
				}
				if !out[i].Dropped && (!reflect.DeepEqual(out[i].Ports, want.Ports) || !reflect.DeepEqual(single.Ports, want.Ports)) {
					t.Fatalf("trial %d: ports mismatch: batch=%v single=%v want=%v", trial, out[i].Ports, single.Ports, want.Ports)
				}
				if out[i].Group != want.Group || single.Group != want.Group {
					t.Fatalf("trial %d: group mismatch: batch=%d single=%d want=%d", trial, out[i].Group, single.Group, want.Group)
				}
			}
		}
	}
}

// FuzzFlatLookup fuzzes (table, state, value) probes on a fixed
// range+codec-heavy program, comparing the flattened lookup to the
// map-based reference and the compiler's linear scan. The corpus holds a
// probe of every table's first row that decides (its target an action set,
// not a state) and, where it has one, its first wildcard.
func FuzzFlatLookup(f *testing.F) {
	r := rand.New(rand.NewSource(4242))
	rules := genDifferentialRules(r, 120, testSymbols)
	sw, prog, _ := buildSwitch(f, rules)
	in := sw.inst.Load()
	refs := make([]mapLookupTable, len(prog.Tables))
	decides := 0
	for fi, tab := range prog.Tables {
		refs[fi] = buildMapLookup(tab)
		if i := slices.IndexFunc(tab.Entries, func(e compiler.Entry) bool { _, ok := compiler.Decides(e.Next); return ok }); i >= 0 {
			e := tab.Entries[i]
			f.Add(uint8(fi), int32(e.State), e.Lo)
			decides++
		}
		if i := slices.IndexFunc(tab.Entries, func(e compiler.Entry) bool { return e.Kind == compiler.EntryWild }); i >= 0 {
			f.Add(uint8(fi), int32(tab.Entries[i].State), ^uint64(0))
		}
	}
	if decides == 0 {
		f.Fatal("no row of the program decides a packet")
	}
	f.Add(uint8(0), int32(0), uint64(0))
	f.Add(uint8(1), int32(3), uint64(500))
	f.Add(uint8(255), int32(-1), ^uint64(0))
	f.Fuzz(func(t *testing.T, ti uint8, state int32, value uint64) {
		fi := int(ti) % len(prog.Tables)
		tab, flat, ref := prog.Tables[fi], &in.tables[fi], &refs[fi]
		wantE, wantOK := tab.Lookup(int(state), value)
		gotNext, gotOK := flat.lookup(int(state), value)
		refNext, refOK := ref.lookup(int(state), value)
		if gotOK != wantOK || refOK != wantOK {
			t.Fatalf("hit mismatch table %s state=%d value=%d: flat=%v map=%v compiler=%v",
				tab.Name, state, value, gotOK, refOK, wantOK)
		}
		if gotOK && (gotNext != wantE.Next || refNext != wantE.Next) {
			t.Fatalf("next mismatch table %s state=%d value=%d: flat=%d map=%d compiler=%d",
				tab.Name, state, value, gotNext, refNext, wantE.Next)
		}
	})
}

// TestReinstallPreservesRegisters checks that a control-plane update does
// not clear hardware register state.
func TestReinstallPreservesRegisters(t *testing.T) {
	sw, prog, sp := buildSwitch(t, "stock == GOOGL && avg(price) > 50 : fwd(1)")
	googl := stockVal(t, sp, "GOOGL")
	// Prime the average.
	sw.Process(packetValues(prog, 0, googl, 100), 0)

	newProg, err := compiler.CompileSource(prog.Spec,
		"stock == GOOGL && avg(price) > 50 : fwd(1)\nstock == AAPL : fwd(2)\n", compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Reinstall(newProg); err != nil {
		t.Fatal(err)
	}
	// The primed average must survive: next GOOGL forwards immediately.
	res := sw.Process(packetValues(newProg, 0, googl, 100), 1000)
	if res.Dropped {
		t.Fatalf("register state lost across reinstall: %+v", res)
	}
}
