package pipeline

import (
	"fmt"
	"strings"

	"camus/internal/compiler"
	"camus/internal/interval"
	"camus/internal/spec"
)

// TableDemand is the memory a single table needs on the device.
type TableDemand struct {
	Name string
	SRAM int // exact entries
	TCAM int // range/ternary entries after prefix expansion
	// Stages is how many physical stages the table occupies (a codec adds
	// a mapping stage in front of its main table).
	Stages int
}

// ResourceReport describes how a program maps onto the device.
type ResourceReport struct {
	Demands     []TableDemand
	TotalSRAM   int
	TotalTCAM   int
	StagesUsed  int
	SRAMBudget  int
	TCAMBudget  int
	StageBudget int
}

// Fits reports whether the program fits the device.
func (r ResourceReport) Fits() bool {
	return r.TotalSRAM <= r.SRAMBudget && r.TotalTCAM <= r.TCAMBudget && r.StagesUsed <= r.StageBudget
}

func (r ResourceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stages %d/%d, SRAM %d/%d, TCAM %d/%d\n",
		r.StagesUsed, r.StageBudget, r.TotalSRAM, r.SRAMBudget, r.TotalTCAM, r.TCAMBudget)
	for _, d := range r.Demands {
		fmt.Fprintf(&b, "  %-24s sram=%-7d tcam=%-6d stages=%d\n", d.Name, d.SRAM, d.TCAM, d.Stages)
	}
	return b.String()
}

// Plan computes the resource demand of a compiled program on a device.
func Plan(prog *compiler.Program, cfg Config) ResourceReport {
	rep := ResourceReport{
		SRAMBudget:  cfg.SRAMPerStage * cfg.Stages,
		TCAMBudget:  cfg.TCAMPerStage * cfg.Stages,
		StageBudget: cfg.Stages,
	}
	for _, t := range prog.Tables {
		d := demand(t, prog.Fields[t.Field])
		rep.Demands = append(rep.Demands, d)
		rep.TotalSRAM += d.SRAM
		rep.TotalTCAM += d.TCAM
		rep.StagesUsed += d.Stages
	}
	leaf := TableDemand{Name: "leaf", SRAM: len(prog.Leaf.Entries), Stages: 1}
	rep.Demands = append(rep.Demands, leaf)
	rep.TotalSRAM += leaf.SRAM
	rep.StagesUsed += leaf.Stages
	return rep
}

func demand(t *compiler.Table, fi compiler.FieldInfo) TableDemand {
	d := TableDemand{Name: t.Name, Stages: 1}
	if t.Codec != nil {
		d.Stages++
		d.TCAM += t.Codec.TCAMCost(fi.Bits)
	}
	for _, e := range t.Entries {
		switch e.Kind {
		case compiler.EntryExact:
			if t.Match == spec.MatchExact || t.Codec != nil {
				d.SRAM++
			} else {
				d.TCAM++
			}
		case compiler.EntryRange:
			d.TCAM += interval.PrefixCount(e.Lo, e.Hi, fi.Bits)
		case compiler.EntryWild:
			d.TCAM++
		}
	}
	return d
}

// CheckResources returns an error when the program does not fit cfg.
func CheckResources(prog *compiler.Program, cfg Config) error {
	rep := Plan(prog, cfg)
	if !rep.Fits() {
		return fmt.Errorf("program exceeds device resources:\n%s", rep)
	}
	return nil
}
