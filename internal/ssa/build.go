// Package ssa converts IR functions into and out of Static Single
// Assignment form, for both virtual registers and memory resources, and
// implements the register promotion paper's incremental SSA update for
// cloned definitions (its Figure 11 algorithm).
//
// After Build, every register has one definition, every memory resource
// reference names a versioned resource, Phi instructions join register
// values, and MemPhi instructions join memory versions. Version 0 of a
// base resource denotes the location's value on function entry (the
// live-in value); it has no defining instruction.
package ssa

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Build converts f to SSA form. The CFG must already be normalized
// (critical edges split); Build does not change the block graph. It
// returns the dominator tree it computed, which callers typically reuse.
func Build(f *ir.Function) (*cfg.DomTree, error) {
	cfg.RemoveUnreachable(f)
	dom := cfg.BuildDomTree(f)
	if err := BuildWith(f, dom, cfg.BuildDomFrontiers(dom)); err != nil {
		return nil, err
	}
	return dom, nil
}

// BuildWith converts f to SSA form using prebuilt analyses. dom and df
// must describe f's current CFG (the pipeline supplies them from its
// analysis cache); unreachable blocks must already be removed.
func BuildWith(f *ir.Function, dom *cfg.DomTree, df cfg.DomFrontiers) error {
	b := &builder{f: f, dom: dom, df: df}
	if err := b.run(); err != nil {
		return err
	}
	PruneTrivialPhis(f)
	return nil
}

type builder struct {
	f   *ir.Function
	dom *cfg.DomTree
	df  cfg.DomFrontiers

	// Registers numbered below nregs are the pre-SSA names; renaming
	// allocates every new one above them, and origReg[r-nregs] is the
	// pre-SSA register that new register r renames. An inserted phi
	// keeps its original name until renamed, so a register phi merges
	// its Dst while that is below nregs and origReg[Dst-nregs] after; a
	// memphi merges the base of its target.
	nregs   int
	origReg []ir.RegID

	// regTop[orig] is the current SSA name of the pre-SSA register orig
	// (NoReg before its first definition on the dominator-tree path);
	// resTop[base] is the current version of base resource base (base
	// itself, version 0, before any). Renaming a block overwrites
	// entries and logs the old values in undo, restoring them when the
	// block's subtree is done: the renaming stacks of the classic
	// algorithm, with one slot per name.
	regTop []ir.RegID
	resTop []ir.ResourceID
	undo   []undoEntry
}

// undoEntry restores regTop[reg] (res == NoResource) or resTop[res] to
// prev.
type undoEntry struct {
	reg  ir.RegID
	res  ir.ResourceID
	prev int32
}

func (b *builder) run() error {
	f := b.f
	b.nregs = f.NumRegs

	// Collect definition sites, densely indexed by register and resource
	// number so the phi-placement loops below iterate in ID order with no
	// map traffic (and no map iteration order anywhere near the output).
	regDefs := make([][]*ir.Block, f.NumRegs)
	resDefs := make([][]*ir.Block, len(f.Resources))
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.HasDst() {
				regDefs[in.Dst] = appendUnique(regDefs[in.Dst], blk)
			}
			for _, d := range in.MemDefs {
				resDefs[d.Res] = appendUnique(resDefs[d.Res], blk)
			}
		}
	}

	// Place phis at iterated dominance frontiers. Spurious phis merging
	// a single reaching definition are cleaned by PruneTrivialPhis. Each
	// block's phis are collected in placement order and prepended in
	// reverse, as inserting each at the front would leave them.
	placed := make([][]*ir.Instr, f.BlockIDBound())
	for r := 0; r < f.NumRegs; r++ {
		reg := ir.RegID(r)
		defs := regDefs[reg]
		if len(defs) == 0 {
			continue
		}
		for _, jb := range cfg.IteratedDF(b.df, defs) {
			phi := ir.NewInstr(ir.OpPhi, reg, make([]ir.Value, len(jb.Preds))...)
			placed[jb.ID] = append(placed[jb.ID], phi)
		}
	}
	for id := 0; id < len(f.Resources); id++ {
		base := ir.ResourceID(id)
		defs := resDefs[base]
		if len(defs) == 0 {
			continue
		}
		for _, jb := range cfg.IteratedDF(b.df, defs) {
			phi := ir.NewInstr(ir.OpMemPhi, ir.NoReg)
			phi.MemDefs = []ir.MemRef{{Res: base}}
			phi.MemUses = make([]ir.MemRef, len(jb.Preds))
			for i := range phi.MemUses {
				phi.MemUses[i] = ir.MemRef{Res: ir.NoResource}
			}
			placed[jb.ID] = append(placed[jb.ID], phi)
		}
	}
	for _, blk := range f.Blocks {
		if phis := placed[blk.ID]; len(phis) > 0 {
			slices.Reverse(phis)
			blk.PrependPhis(phis)
		}
	}

	// Rename along the dominator tree.
	b.regTop = make([]ir.RegID, b.nregs)
	for i := range b.regTop {
		b.regTop[i] = ir.NoReg
	}
	for _, p := range f.Params {
		// Parameters are their own first SSA version.
		b.regTop[p] = p
	}
	b.resTop = make([]ir.ResourceID, len(f.Resources))
	for i := range b.resTop {
		b.resTop[i] = ir.ResourceID(i) // version 0: live-in value
	}
	return b.rename(f.Entry())
}

func appendUnique(bs []*ir.Block, b *ir.Block) []*ir.Block {
	for _, x := range bs {
		if x == b {
			return bs
		}
	}
	return append(bs, b)
}

// pushReg makes name the current SSA name of orig.
func (b *builder) pushReg(orig, name ir.RegID) {
	b.undo = append(b.undo, undoEntry{reg: orig, res: ir.NoResource, prev: int32(b.regTop[orig])})
	b.regTop[orig] = name
}

// pushRes makes ver the current version of base.
func (b *builder) pushRes(base, ver ir.ResourceID) {
	b.undo = append(b.undo, undoEntry{res: base, prev: int32(b.resTop[base])})
	b.resTop[base] = ver
}

// phiOrigReg returns the pre-SSA register an inserted phi merges.
func (b *builder) phiOrigReg(phi *ir.Instr) ir.RegID {
	if int(phi.Dst) < b.nregs {
		return phi.Dst // not renamed yet
	}
	return b.origReg[int(phi.Dst)-b.nregs]
}

// newReg allocates the SSA name for a definition of orig.
func (b *builder) newReg(orig ir.RegID) ir.RegID {
	nr := b.f.NewReg(b.f.RegName(orig))
	b.origReg = append(b.origReg, orig)
	return nr
}

func (b *builder) rename(blk *ir.Block) error {
	f := b.f
	mark := len(b.undo)

	for _, in := range blk.Instrs {
		switch in.Op {
		case ir.OpPhi:
			orig := in.Dst
			in.Dst = b.newReg(orig)
			b.pushReg(orig, in.Dst)
			continue
		case ir.OpMemPhi:
			base := in.MemDefs[0].Res
			nv := f.NewVersion(base)
			in.MemDefs[0].Res = nv.ID
			b.pushRes(base, nv.ID)
			continue
		}
		// Ordinary instruction: rewrite register uses.
		for i, a := range in.Args {
			if a.IsConst() {
				continue
			}
			cur := b.regTop[a.Reg()]
			if cur == ir.NoReg {
				return fmt.Errorf("ssa: %s: register r%d used before definition in %v",
					f.Name, a.Reg(), blk)
			}
			in.Args[i] = ir.RegVal(cur)
		}
		// Rewrite memory uses to current versions.
		for i := range in.MemUses {
			in.MemUses[i].Res = b.resTop[in.MemUses[i].Res]
		}
		// Rewrite register definition.
		if in.HasDst() {
			orig := in.Dst
			in.Dst = b.newReg(orig)
			b.pushReg(orig, in.Dst)
		}
		// Rewrite memory definitions to fresh versions.
		for i := range in.MemDefs {
			base := in.MemDefs[i].Res
			nv := f.NewVersion(base)
			in.MemDefs[i].Res = nv.ID
			b.pushRes(nv.Orig, nv.ID)
		}
	}

	// Fill phi operands in successors.
	for _, s := range blk.Succs {
		pi := s.PredIndex(blk)
		for _, phi := range s.Phis() {
			switch phi.Op {
			case ir.OpPhi:
				if cur := b.regTop[b.phiOrigReg(phi)]; cur != ir.NoReg {
					phi.Args[pi] = ir.RegVal(cur)
				} else {
					// The merged variable is undefined along this path;
					// its value can never be observed, so any operand
					// is sound.
					phi.Args[pi] = ir.ConstVal(0)
				}
			case ir.OpMemPhi:
				phi.MemUses[pi] = ir.MemRef{Res: b.resTop[f.BaseOf(phi.MemDefs[0].Res).ID]}
			}
		}
	}

	for _, c := range b.dom.Children(blk) {
		if err := b.rename(c); err != nil {
			return err
		}
	}

	for len(b.undo) > mark {
		e := b.undo[len(b.undo)-1]
		b.undo = b.undo[:len(b.undo)-1]
		if e.res == ir.NoResource {
			b.regTop[e.reg] = ir.RegID(e.prev)
		} else {
			b.resTop[e.res] = ir.ResourceID(e.prev)
		}
	}
	return nil
}
