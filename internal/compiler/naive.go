package compiler

import (
	"camus/internal/bdd"
	"camus/internal/interval"
)

// NaiveTCAMCost computes what the rejected single-wide-table encoding of
// §3.2 would cost in TCAM entries: one region per root-to-terminal BDD
// path, where each region's entry count is the product of the per-field
// range-to-prefix expansions along that path (a wide TCAM entry matches
// all fields at once, so expansions multiply). Unconstrained fields are
// fully masked and contribute a factor of one. The result saturates at
// MaxUint64. It reads the diagram of the pass's last Compile.
func NaiveTCAMCost(pass *Pass) uint64 {
	p := pass.prog
	if pass.diagram == nil || pass.diagram.Root == nil {
		return 0
	}
	const sat = ^uint64(0)
	var total uint64
	add := func(v uint64) {
		if total+v < total {
			total = sat
			return
		}
		total += v
	}

	ctx := make([]interval.Set, len(p.Fields))
	var walk func(n *bdd.Node)
	walk = func(n *bdd.Node) {
		if total == sat {
			return
		}
		if n.IsTerminal() {
			// Cost of this region: product of per-field expansions.
			cost := uint64(1)
			for f, set := range ctx {
				if set.IsEmpty() || set.IsFull(p.Fields[f].Max) {
					continue // unconstrained: fully masked
				}
				exp := uint64(set.TCAMCost(p.Fields[f].Bits))
				if exp == 0 {
					return // unreachable region
				}
				if cost > sat/exp {
					cost = sat
					break
				}
				cost *= exp
			}
			add(cost)
			return
		}
		f := n.Field
		saved := ctx[f]
		base := saved
		if base.IsEmpty() {
			base = interval.Full(p.Fields[f].Max)
		}
		ctx[f] = base.Intersect(n.Set)
		if !ctx[f].IsEmpty() {
			walk(n.True)
		}
		ctx[f] = base.Minus(n.Set, p.Fields[f].Max)
		if !ctx[f].IsEmpty() {
			walk(n.False)
		}
		ctx[f] = saved
	}
	walk(pass.diagram.Root)
	return total
}

// MemoryCost returns the program's total table footprint (SRAM + TCAM
// entries including codec stages), the quantity to compare against
// NaiveTCAMCost.
func (p *Program) MemoryCost() uint64 {
	return uint64(p.Stats.SRAMEntries) + uint64(p.Stats.TCAMEntries)
}
