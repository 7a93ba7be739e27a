// Public navigation API over compiled programs and analysis results, so
// that tools built on the library (see examples/) can locate parallel
// constructs, enumerate measured accesses and filter compiler-generated
// location sets without reaching into internal packages.

package mtpa

import (
	"fmt"

	"mtpa/internal/core"
	"mtpa/internal/ir"
	"mtpa/internal/locset"
)

// UnkID is the distinguished "unknown" location set: the target of
// uninitialised or untracked pointers (⊥ in the paper's lattice
// rendering). It is the same ID in every table.
const UnkID LocSetID = locset.UnkID

// PointKey identifies a program point for Result.PointAt (recorded when
// Options.RecordPoints is set): the state before instruction Idx of a
// flow-graph node, in context Ctx. Program points with Idx equal to the
// node's instruction count denote the state after the node's last
// instruction. Context 0 is the root context of main.
type PointKey = core.PointKey

// TempFilter returns a filter identifying compiler-generated location
// sets — temporaries and procedure return slots — for use with
// Graph.FormatFiltered when rendering points-to graphs for people.
func (p *Program) TempFilter() func(LocSetID) bool {
	return p.IR.Table.IsTemp
}

// ParSite describes one parallel construct (par block, parallel loop or
// spawn/sync region) of a compiled program, with ready-made point keys
// for inspecting the analysis state around it in the root context.
type ParSite struct {
	// Fn is the name of the enclosing procedure.
	Fn string
	// Before is the program point at the end of the construct's first
	// predecessor block — the state flowing into the construct.
	Before PointKey
	// ThreadEntries are the program points at the entry of each child
	// thread's body.
	ThreadEntries []PointKey
	// After is the program point at the start of the construct's first
	// successor block — the state after the parend join.
	After PointKey
}

// ParSites lists the program's parallel constructs in flow-graph order.
// The point keys address the root context (Ctx 0); pass them to
// Result.PointAt on a result computed with Options.RecordPoints.
func (p *Program) ParSites() []ParSite {
	var sites []ParSite
	for _, fn := range p.IR.Funcs {
		for _, n := range fn.AllNodes {
			if n.Kind != ir.NodePar {
				continue
			}
			site := ParSite{Fn: fn.Name}
			if len(n.Preds) > 0 {
				pre := n.Preds[0]
				site.Before = PointKey{Node: pre, Idx: len(pre.Instrs)}
			}
			for _, th := range n.Threads {
				site.ThreadEntries = append(site.ThreadEntries, PointKey{Node: th.Entry})
			}
			if len(n.Succs) > 0 {
				site.After = PointKey{Node: n.Succs[0]}
			}
			sites = append(sites, site)
		}
	}
	return sites
}

// AccessInfo describes one measured pointer-dereferencing access. Its ID
// matches the AccID of the metrics samples (Result.Metrics), so samples
// can be joined back to source positions without touching the IR.
type AccessInfo struct {
	// ID is the dense access index (the AccID of metrics samples).
	ID int
	// Fn is the name of the procedure containing the access.
	Fn string
	// Store is true for writes through a pointer, false for reads.
	Store bool
	// Data is true when the access moves non-pointer data (the analysis
	// tracks it only to measure where it may read or write), false when
	// it loads or stores a pointer value.
	Data bool
	// Pos is the access's source position, "file:line:col".
	Pos string
}

// Accesses lists the program's measured pointer-dereferencing accesses
// indexed by access ID.
func (p *Program) Accesses() []AccessInfo {
	out := make([]AccessInfo, len(p.IR.Accesses))
	for i, acc := range p.IR.Accesses {
		op := acc.Instr.Op
		out[i] = AccessInfo{
			ID:    i,
			Fn:    acc.Fn.Name,
			Store: acc.Instr.IsStoreInstr(),
			Data:  op == ir.OpDataLoad || op == ir.OpDataStore,
			Pos:   fmt.Sprint(acc.Instr.Pos),
		}
	}
	return out
}
