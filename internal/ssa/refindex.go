package ssa

import (
	"slices"
	"sort"

	"repro/internal/ir"
)

// RefSite is one memory reference — the paper's "reference": slot Idx
// of In's MemDefs when Def is set, of its MemUses otherwise.
type RefSite struct {
	In  *ir.Instr
	Idx int
	Def bool
	// blk is In's block when the site was indexed: the index's sort key,
	// kept after In leaves its block.
	blk ir.BlockID
}

// Res returns the resource version the reference names.
func (s RefSite) Res() ir.ResourceID {
	if s.Def {
		return s.In.MemDefs[s.Idx].Res
	}
	return s.In.MemUses[s.Idx].Res
}

// live reports whether the reference still exists: its instruction is
// in a block and still has the slot.
func (s RefSite) live() bool {
	if s.In.Parent == nil {
		return false
	}
	if s.Def {
		return s.Idx < len(s.In.MemDefs)
	}
	return s.Idx < len(s.In.MemUses)
}

// RefIndex maps each base resource to its reference sites: every
// definition or use of some version of the base. It lets a pass that
// works on one variable at a time — register promotion, the incremental
// SSA update — visit only that variable's references instead of
// scanning every block of the function, and a call's reference to the
// base without its references to every other base.
//
// A base's sites are kept in block order: grouped by block, blocks in
// ascending ID order, which is f.Blocks order (blocks are appended with
// increasing IDs and nothing reorders the list). Within a block, sites
// present when the index was built come first in instruction order;
// sites added later follow them.
//
// The index stays current when every pass editing f's memory references
// follows three rules: an instruction inserted with memory references is
// passed to Add; a removed instruction needs nothing (Sites drops the
// references of instructions whose Parent is nil); an in-place rewrite
// may only rename a reference to another version of the same base or
// clear the instruction's references altogether (a load turned into a
// copy). UpdateForClonedResources follows them for the phis it inserts
// and the definitions it deletes. The CFG must not change, nor base
// resources be added, while the index is in use.
type RefIndex struct {
	f     *ir.Function
	sites [][]RefSite // indexed by base ResourceID

	// defOf and phiDef map resource versions to defining instructions
	// for UpdateForClonedResources. They live here, grown to the
	// resource table, so that each update pays only for the entries it
	// sets; it resets them before returning.
	defOf, phiDef []*ir.Instr
}

// NewRefIndex indexes every memory reference of f in one pass.
func NewRefIndex(f *ir.Function) *RefIndex {
	x := &RefIndex{f: f, sites: make([][]RefSite, len(f.Resources))}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			x.forEachRef(in, func(base ir.ResourceID, site RefSite) {
				x.sites[base] = append(x.sites[base], site)
			})
		}
	}
	return x
}

// Func returns the function the index describes.
func (x *RefIndex) Func() *ir.Function { return x.f }

// forEachRef calls fn with every memory reference of in and the base it
// names.
func (x *RefIndex) forEachRef(in *ir.Instr, fn func(ir.ResourceID, RefSite)) {
	blk := in.Parent.ID
	for i, d := range in.MemDefs {
		fn(x.f.Resources[d.Res].Orig, RefSite{In: in, Idx: i, Def: true, blk: blk})
	}
	for i, u := range in.MemUses {
		fn(x.f.Resources[u.Res].Orig, RefSite{In: in, Idx: i, blk: blk})
	}
}

// Add records the references of in, which has just been inserted into
// a block of f. The cost is linear in the sites of the bases it
// references.
func (x *RefIndex) Add(in *ir.Instr) { x.AddAll([]*ir.Instr{in}) }

// AddAll records the references of every instruction in ins, as Add
// would one at a time in order, with one merge per referenced base.
func (x *RefIndex) AddAll(ins []*ir.Instr) {
	type pending struct {
		base ir.ResourceID
		site RefSite
	}
	var add []pending
	for _, in := range ins {
		x.forEachRef(in, func(base ir.ResourceID, site RefSite) {
			add = append(add, pending{base, site})
		})
	}
	sort.SliceStable(add, func(i, j int) bool {
		if add[i].base != add[j].base {
			return add[i].base < add[j].base
		}
		return add[i].site.blk < add[j].site.blk
	})
	for len(add) > 0 {
		base, n := add[0].base, 1
		for n < len(add) && add[n].base == base {
			n++
		}
		// Merge from the back, each new site after the sites of its
		// block and of the blocks before it. Dead sites keep their key,
		// so the list stays sorted.
		s := x.sites[base]
		i, k := len(s)-1, len(s)+n-1
		s = slices.Grow(s, n)[:len(s)+n]
		for j := n - 1; j >= 0; k-- {
			if i >= 0 && s[i].blk > add[j].site.blk {
				s[k] = s[i]
				i--
			} else {
				s[k] = add[j].site
				j--
			}
		}
		x.sites[base] = s
		add = add[n:]
	}
}

// defTables returns defOf and phiDef grown to f's resource table.
func (x *RefIndex) defTables() (defOf, phiDef []*ir.Instr) {
	if n := len(x.f.Resources); len(x.defOf) < n {
		x.defOf = append(x.defOf, make([]*ir.Instr, n-len(x.defOf))...)
		x.phiDef = append(x.phiDef, make([]*ir.Instr, n-len(x.phiDef))...)
	}
	return x.defOf, x.phiDef
}

// Sites returns the reference sites of base in block order, after
// dropping the references removed or cleared since the last call. The
// slice aliases the index: it is valid until the next Add or Sites.
func (x *RefIndex) Sites(base ir.ResourceID) []RefSite {
	s := x.sites[base]
	// Compact from the first dead site on; a list with none is left
	// untouched.
	n := 0
	for n < len(s) && s[n].live() {
		n++
	}
	if n == len(s) {
		return s
	}
	kept := s[:n]
	for _, site := range s[n+1:] {
		if site.live() {
			kept = append(kept, site)
		}
	}
	clear(s[len(kept):])
	x.sites[base] = kept
	return kept
}
