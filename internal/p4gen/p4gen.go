// Package p4gen emits the static-compilation artifacts of §3.1: a P4₁₄
// program implementing the Camus pipeline for a message format spec (the
// parser, the per-field match-action tables, the leaf table, the register
// block for state variables) and the control-plane entry set produced by
// the dynamic compiler in a loadable text form.
//
// The generated P4 is the deployment artifact for a real ASIC; this
// repository's internal/pipeline package implements the same semantics in
// Go so the whole system can be exercised without hardware.
package p4gen

import (
	"fmt"
	"sort"
	"strings"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
)

// sanitize turns a qualified field name into a valid P4 identifier.
func sanitize(name string) string {
	r := strings.NewReplacer(".", "_", "(", "_", ")", "", " ", "")
	return r.Replace(name)
}

// GenerateP4 renders the static pipeline for a compiled program as P4₁₄
// source.
func GenerateP4(prog *compiler.Program) string {
	var b strings.Builder
	sp := prog.Spec

	b.WriteString("// Generated by the Camus packet-subscription compiler.\n")
	b.WriteString("// Static pipeline: do not edit; regenerate from the spec.\n\n")

	// Header types and instances (straight from the spec).
	for _, ht := range sp.Types {
		fmt.Fprintf(&b, "header_type %s {\n    fields {\n", ht.Name)
		for _, f := range ht.Fields {
			fmt.Fprintf(&b, "        %s : %d;\n", f.Name, f.Bits)
		}
		b.WriteString("    }\n}\n\n")
	}
	for _, in := range sp.Instances {
		fmt.Fprintf(&b, "header %s %s;\n", in.Type.Name, in.Name)
	}
	b.WriteString("\n")

	// Metadata: the BDD state register, the decision a row made, one slot
	// per state field, and one code slot per domain-compressed field.
	b.WriteString("header_type camus_meta_t {\n    fields {\n")
	b.WriteString("        state : 16;\n")
	b.WriteString("        decided : 1;\n")
	b.WriteString("        class : 16;\n")
	for _, f := range prog.Fields {
		if f.IsState {
			fmt.Fprintf(&b, "        %s : %d;\n", sanitize(f.Name), f.Bits)
		}
	}
	for i, t := range prog.Tables {
		if t.Codec != nil {
			fmt.Fprintf(&b, "        %s_code : 16;\n", sanitize(prog.Fields[i].Name))
		}
	}
	b.WriteString("    }\n}\nmetadata camus_meta_t camus_meta;\n\n")

	// Parser: one state per header instance, in declaration order.
	b.WriteString("parser start {\n")
	if len(sp.Instances) > 0 {
		fmt.Fprintf(&b, "    return parse_%s;\n}\n\n", sp.Instances[0].Name)
		for i, in := range sp.Instances {
			fmt.Fprintf(&b, "parser parse_%s {\n    extract(%s);\n", in.Name, in.Name)
			if i+1 < len(sp.Instances) {
				fmt.Fprintf(&b, "    return parse_%s;\n}\n\n", sp.Instances[i+1].Name)
			} else {
				b.WriteString("    return ingress;\n}\n\n")
			}
		}
	} else {
		b.WriteString("    return ingress;\n}\n\n")
	}

	// Registers for state variables (pre-allocated block, §3.1).
	for _, f := range prog.Fields {
		if !f.IsState {
			continue
		}
		id := sanitize(f.Name)
		fmt.Fprintf(&b, "register reg_%s_sum { width : 64; instance_count : 1; }\n", id)
		fmt.Fprintf(&b, "register reg_%s_count { width : 32; instance_count : 1; }\n", id)
		fmt.Fprintf(&b, "register reg_%s_window { width : 48; instance_count : 1; }\n\n", id)
	}

	// Actions shared by the field tables. A row whose Out node is a
	// terminal decides the packet: it forwards or multicasts it itself, or,
	// when the terminal's action set updates state, names that class for
	// the leaf.
	b.WriteString("action set_state(next_state) {\n    modify_field(camus_meta.state, next_state);\n}\n\n")
	b.WriteString("action keep_state() {\n    no_op();\n}\n\n")
	b.WriteString("action do_fwd(port) {\n    modify_field(standard_metadata.egress_spec, port);\n    modify_field(camus_meta.decided, 1);\n}\n\n")
	b.WriteString("action do_multicast(group) {\n    modify_field(intrinsic_metadata.mcast_grp, group);\n    modify_field(camus_meta.decided, 1);\n}\n\n")
	b.WriteString("// class is 1 + the action set's index; 0 names none.\n")
	b.WriteString("action set_class(class) {\n    modify_field(camus_meta.class, class);\n}\n\n")
	b.WriteString("action do_drop() {\n    drop();\n}\n\n")
	b.WriteString("// A miss runs the table's default action, which the control-plane entries\n")
	b.WriteString("// set: keep_state on every field table, do_drop on camus_leaf (or, for a\n")
	b.WriteString("// program that is one terminal, that terminal's forward).\n\n")

	// One table per field (plus a codec stage when compression applies).
	for i, t := range prog.Tables {
		f := prog.Fields[i]
		id := sanitize(f.Name)
		ref := fieldRef(f)
		if t.Codec != nil {
			// Domain compression (§3.2): a range-match mapping stage
			// writes an 8/16-bit code; the main table matches the code
			// exactly in SRAM.
			fmt.Fprintf(&b, "action set_%s_code(code) {\n    modify_field(camus_meta.%s_code, code);\n}\n\n", id, id)
			fmt.Fprintf(&b, "table camus_%s_codec {\n    reads { %s : range; }\n    actions { set_%s_code; }\n    size : %d;\n}\n\n", id, ref, id, tableSize(t.Codec.NumIntervals()))
			ref = fmt.Sprintf("camus_meta.%s_code", id)
		}
		matchKind := "range"
		switch t.Match {
		case spec.MatchExact:
			matchKind = "exact"
		case spec.MatchTernary:
			matchKind = "ternary"
		}
		fmt.Fprintf(&b, "table camus_%s {\n    reads {\n        camus_meta.state : exact;\n        %s : %s;\n    }\n    actions { set_state; keep_state; do_fwd; do_multicast; set_class; }\n    size : %d;\n}\n\n",
			id, ref, matchKind, tableSize(len(t.Entries)))
	}

	// The leaf table runs the state updates of the class a row named.
	for _, f := range prog.Fields {
		if f.IsState {
			id := sanitize(f.Name)
			fmt.Fprintf(&b, "action update_%s() {\n    // generic state-update stub linked by the dynamic compiler (§3.1)\n    register_write(reg_%s_sum, 0, %s);\n}\n\n", id, id, updateSource(f))
		}
	}
	fmt.Fprintf(&b, "table camus_leaf {\n    reads { camus_meta.class : exact; }\n    actions { do_fwd; do_multicast; do_drop; }\n    size : %d;\n}\n\n", tableSize(len(prog.Leaf.Entries)))

	// Control flow: fixed-length pipeline, one apply per stage. The leaf
	// runs only for a packet no row forwarded, so its default cannot
	// override a forward a row already made.
	b.WriteString("control ingress {\n")
	for i, t := range prog.Tables {
		id := sanitize(prog.Fields[i].Name)
		if t.Codec != nil {
			fmt.Fprintf(&b, "    apply(camus_%s_codec);\n", id)
		}
		fmt.Fprintf(&b, "    apply(camus_%s);\n", id)
	}
	b.WriteString("    if (camus_meta.decided == 0) {\n        apply(camus_leaf);\n    }\n}\n")
	return b.String()
}

// fieldRef renders the P4 reference for a field: packet fields keep their
// instance.field form, state fields live in camus metadata.
func fieldRef(f compiler.FieldInfo) string {
	if f.IsState {
		return "camus_meta." + sanitize(f.Name)
	}
	return f.Name
}

func updateSource(f compiler.FieldInfo) string {
	if f.BaseField != "" {
		return f.BaseField
	}
	return "1"
}

// tableSize rounds a table's entry count up to the next power of two (how
// table capacity is typically provisioned).
func tableSize(n int) int {
	size := 16
	for size < n {
		size *= 2
	}
	return size
}

// GenerateEntries renders the dynamic compilation output — the
// control-plane rules — in a simple line-oriented form:
//
//	mcgroup <id> ports=<p1,p2,...>
//	table <name> default -> keep_state
//	table <name> add state=<n> match=<exact:v|range:lo-hi|*> -> state=<n>|fwd(p)|mcast(g)|class(c)|keep_state
//	table camus_leaf default -> drop|fwd(p)|mcast(g)
//	table camus_leaf add class=<c> -> fwd(p)|mcast(g)|drop
//	table camus_leaf link class=<c>|default update=<var> func=<f>
//
// A row that reaches a terminal decides the packet itself, so only the
// action sets that update state have leaf rows, and the leaf's default is
// drop unless the diagram is one terminal. The defaults are what a miss
// does, and the compiler relies on them: a packet no rule wants keeps its
// state through the field tables and is dropped by the leaf.
func GenerateEntries(prog *compiler.Program) string {
	var b strings.Builder
	for gi, ports := range prog.Groups {
		fmt.Fprintf(&b, "mcgroup %d ports=%s\n", gi, lang.FormatPorts(ports.AppendTo(nil)))
	}
	for i, t := range prog.Tables {
		name := "camus_" + sanitize(prog.Fields[i].Name)
		if t.Codec != nil {
			for code := 0; code < t.Codec.NumIntervals(); code++ {
				iv := t.Codec.IntervalFor(uint64(code))
				fmt.Fprintf(&b, "table %s_codec add match=range:%d-%d -> code=%d\n", name, iv.Lo, iv.Hi, code)
			}
		}
		fmt.Fprintf(&b, "table %s default -> keep_state\n", name)
		entries := append([]compiler.Entry(nil), t.Entries...)
		sort.SliceStable(entries, func(a, c int) bool { return entries[a].State < entries[c].State })
		for _, e := range entries {
			fmt.Fprintf(&b, "table %s add state=%d match=%s -> %s\n", name, e.State, matchStr(e), rowAction(prog, e.Next))
		}
	}
	if _, ok := prog.LeafDefault(); !ok {
		b.WriteString("table camus_leaf default -> drop\n")
	}
	for _, e := range prog.Leaf.Entries {
		a, _ := compiler.Decides(e.Next)
		key := "default"
		if e.Kind == compiler.EntryWild {
			fmt.Fprintf(&b, "table camus_leaf default -> %s\n", forward(prog.Actions[a]))
		} else {
			key = fmt.Sprintf("class=%d", a+1)
			fmt.Fprintf(&b, "table camus_leaf add %s -> %s\n", key, forward(prog.Actions[a]))
		}
		for _, u := range prog.Actions[a].Updates {
			fmt.Fprintf(&b, "table camus_leaf link %s update=%s func=%s\n", key, sanitize(u.Var), u.Func)
		}
	}
	return b.String()
}

// rowAction is what a field-table row does: move to its next state, or
// decide — forward, multicast, or name a class with state updates for the
// leaf. A row to the action set that does nothing keeps the state: the leaf
// drops the packet.
func rowAction(prog *compiler.Program, next int) string {
	a, ok := compiler.Decides(next)
	if !ok {
		return fmt.Sprintf("state=%d", next)
	}
	switch act := prog.Actions[a]; {
	case len(act.Updates) > 0:
		return fmt.Sprintf("class(%d)", a+1)
	case act.Ports.Len() == 0:
		return "keep_state"
	default:
		return forward(act)
	}
}

// forward is how an action set sends a packet on: one port, a multicast
// group, or nowhere.
func forward(act compiler.ActionSet) string {
	switch {
	case act.Group >= 0:
		return fmt.Sprintf("mcast(%d)", act.Group)
	case act.Ports.Len() == 1:
		return fmt.Sprintf("fwd(%d)", act.Ports.AppendTo(nil)[0])
	default:
		return "drop"
	}
}

func matchStr(e compiler.Entry) string {
	switch e.Kind {
	case compiler.EntryExact:
		return fmt.Sprintf("exact:%d", e.Lo)
	case compiler.EntryRange:
		return fmt.Sprintf("range:%d-%d", e.Lo, e.Hi)
	default:
		return "*"
	}
}
