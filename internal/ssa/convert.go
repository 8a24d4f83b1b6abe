package ssa

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// ConvertResourceToSSA incrementally converts one base resource into
// SSA form — the second use the paper claims for its update algorithm:
// "When a compiler phase adds a new resource with multiple definitions
// and uses to the code stream, the resource can be converted into SSA
// form by using the incremental update algorithm."
//
// The function must otherwise be in SSA form, with every reference to
// base still carrying version 0. ConvertResourceToSSA gives each
// definition a fresh version and then runs UpdateForClonedResources
// with the base as the sole "old" resource and the new versions as the
// clones: uses rename to their reaching definitions, phis appear at the
// iterated dominance frontier, and anything left dead is swept. It
// returns the number of definitions versioned.
func ConvertResourceToSSA(f *ir.Function, dom *cfg.DomTree, df cfg.DomFrontiers, base ir.ResourceID) (int, error) {
	if !f.Res(base).IsBase() {
		return 0, fmt.Errorf("ssa: ConvertResourceToSSA on non-base resource %s", f.Res(base))
	}
	var cloned []ir.ResourceID
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i := range in.MemDefs {
				if in.MemDefs[i].Res != base {
					continue
				}
				v := f.NewVersion(base)
				in.MemDefs[i].Res = v.ID
				cloned = append(cloned, v.ID)
			}
		}
	}
	if len(cloned) == 0 {
		return 0, nil
	}
	if _, err := UpdateForClonedResources(f, dom, df, NewRefIndex(f), []ir.ResourceID{base}, cloned); err != nil {
		return 0, err
	}
	return len(cloned), nil
}
