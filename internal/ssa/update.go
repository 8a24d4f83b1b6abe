package ssa

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/ir"
)

// UpdateForClonedResources is the paper's incremental SSA update for
// cloned definitions (its updateSSAForClonedResources, Figure 11).
//
// oldRes is a set of resource versions already under SSA form, all
// renamed from the same base name; cloned is a set of new versions of
// the same base whose defining instructions have already been inserted
// into the code stream (for register promotion these are the
// compensation stores; loop unrolling would pass the duplicated
// definitions). refs indexes f's memory references and must already
// list the cloned definitions. The update:
//
//  1. collects the definition blocks of old and cloned resources,
//     computes their iterated dominance frontier in one batch, and
//     places a fresh memphi at each frontier block;
//  2. renames every use of an old resource to its reaching definition,
//     found by walking backward in the block and then up the dominator
//     tree;
//  3. fills the operands of phis that uses made live, propagating
//     liveness through newly reached phis (a phi operand counts as a
//     use at the end of its predecessor);
//  4. deletes every definition left without uses — dead old stores,
//     dead cloned stores, and redundant inserted phis — iterating so
//     cascading deadness is also removed. Only direct stores and
//     memphis are deleted; aliased definitions (calls, pointer stores)
//     merely keep their dead version.
//
// The batch IDF over all definition sites is what makes this cheaper
// than updating one definition at a time as in Choi–Sarkar–Schonberg;
// step 4 is why the paper can promise that cloning introduces no dead
// code.
//
// Every step reads only the base's reference sites from refs, never
// f's block list: a memphi's target and operands are versions of one
// base and only definitions of the base are deleted, so the liveness of
// other bases cannot change the result. The cost is therefore
// proportional to the base's references — its sites, its iterated
// dominance frontier, and the dominator-tree walks from renamed uses,
// which scan only blocks holding a definition of the updated versions —
// not to the size of the function. refs is kept current: inserted phis
// are added, deleted definitions drop out.
//
// It returns the memphi instructions it inserted and left alive, in
// placement order.
func UpdateForClonedResources(f *ir.Function, dom *cfg.DomTree, df cfg.DomFrontiers, refs *RefIndex, oldRes, cloned []ir.ResourceID) ([]*ir.Instr, error) {
	if len(oldRes) == 0 {
		return nil, fmt.Errorf("ssa: update with empty oldRes set")
	}
	if refs.Func() != f {
		return nil, fmt.Errorf("ssa: reference index of %s used to update %s", refs.Func().Name, f.Name)
	}
	base := f.BaseOf(oldRes[0]).ID
	for _, r := range append(append([]ir.ResourceID(nil), oldRes...), cloned...) {
		if f.BaseOf(r).ID != base {
			return nil, fmt.Errorf("ssa: update resources span different bases (%s vs %s)",
				f.Res(base), f.BaseOf(r))
		}
	}

	u := &updater{
		dom:       dom,
		base:      base,
		old:       bitset.NewDense(len(f.Resources)),
		all:       bitset.NewDense(len(f.Resources)),
		defBlocks: bitset.NewDense(int(f.BlockIDBound())),
	}
	for _, r := range oldRes {
		u.old.Set(int(r))
		u.all.Set(int(r))
	}
	for _, r := range cloned {
		u.all.Set(int(r))
	}

	// Step 1: batch phi placement at the IDF of every definition block.
	// Sites come in block order, so defBlocks lists blocks in f.Blocks
	// order, which fixes the order of IteratedDF's result and hence the
	// numbering of the new versions.
	// defOf[r] is the definition of r, for r in all; every entry set is
	// reset on return.
	defOf, _ := refs.defTables()
	defer func() {
		u.all.ForEach(func(r int) { refs.defOf[r] = nil })
	}()
	var defBlocks []*ir.Block
	for _, site := range refs.Sites(base) {
		if !site.Def || !u.all.Has(int(site.Res())) {
			continue
		}
		defOf[site.Res()] = site.In
		if b := site.In.Parent; !u.defBlocks.Has(int(b.ID)) {
			u.defBlocks.Set(int(b.ID))
			defBlocks = append(defBlocks, b)
		}
	}
	for _, r := range cloned {
		if defOf[r] == nil {
			return nil, fmt.Errorf("ssa: cloned version %s has no definition in the reference index", f.Res(r))
		}
	}
	// New phi targets are the versions numbered from firstNew on, in
	// placement order: newPhis[r-firstNew] defines r.
	firstNew := ir.ResourceID(len(f.Resources))
	var newPhis []*ir.Instr
	for _, jb := range cfg.IteratedDF(df, defBlocks) {
		if dom.RPOIndex(jb) < 0 {
			continue
		}
		target := f.NewVersion(base)
		phi := ir.NewInstr(ir.OpMemPhi, ir.NoReg)
		phi.MemDefs = []ir.MemRef{{Res: target.ID}}
		phi.MemUses = make([]ir.MemRef, len(jb.Preds))
		for i := range phi.MemUses {
			phi.MemUses[i] = ir.MemRef{Res: base} // placeholder until filled
		}
		jb.InsertPhi(phi)
		newPhis = append(newPhis, phi)
		u.defBlocks.Set(int(jb.ID))
	}
	refs.AddAll(newPhis)
	defOf, phiDef := refs.defTables()
	u.all.Grow(len(f.Resources))
	for r := firstNew; int(r) < len(f.Resources); r++ {
		u.all.Set(int(r))
	}
	isNewPhi := func(in *ir.Instr) bool {
		return in.Op == ir.OpMemPhi && in.MemDefs[0].Res >= firstNew
	}

	// Step 2: rename uses of old resources to their reaching defs.
	live := make([]bool, len(newPhis))
	var work []*ir.Instr
	enqueue := func(def ir.ResourceID) {
		if def >= firstNew && !live[def-firstNew] {
			live[def-firstNew] = true
			work = append(work, newPhis[def-firstNew])
		}
	}
	for _, site := range refs.Sites(base) {
		in, b := site.In, site.In.Parent
		if site.Def || !u.old.Has(int(site.Res())) || isNewPhi(in) || dom.RPOIndex(b) < 0 {
			continue // new phis' operands are filled in step 3
		}
		var rdef ir.ResourceID
		if in.Op == ir.OpMemPhi {
			pred := b.Preds[site.Idx]
			rdef = u.reachingDef(pred, len(pred.Instrs), nil)
		} else {
			rdef = u.reachingDef(b, u.indexOf(in), nil)
		}
		in.MemUses[site.Idx].Res = rdef
		enqueue(rdef)
	}

	// Step 3: fill the operands of live new phis, propagating liveness.
	for len(work) > 0 {
		phi := work[len(work)-1]
		work = work[:len(work)-1]
		b := phi.Parent
		for pi, pred := range b.Preds {
			rdef := u.reachingDef(pred, len(pred.Instrs), phi)
			phi.MemUses[pi].Res = rdef
			enqueue(rdef)
		}
	}

	// Unreached new phis are dead; remove them before counting uses so
	// their placeholder operands do not hold other defs alive.
	for i, phi := range newPhis {
		if !live[i] {
			u.all.Clear(int(phi.MemDefs[0].Res))
			phi.Parent.Remove(phi)
		} else {
			defOf[phi.MemDefs[0].Res] = phi
		}
	}

	// Step 4: delete definitions without uses. A plain use count cannot
	// retire cycles of mutually-referencing dead phis (a loop header phi
	// and a join phi feeding each other), so liveness is computed by
	// mark and sweep: a version is live when a non-phi instruction uses
	// it, or when a memphi whose own target is live uses it. The sweep
	// must see every memphi of the base — phis outside the updated
	// family (for example an enclosing loop's header phi) legitimately
	// keep cloned definitions alive — but no other base's: their
	// versions are never operands of the base's phis.
	liveRes := bitset.NewDense(len(f.Resources))
	var resWork []ir.ResourceID
	markRes := func(r ir.ResourceID) {
		if !liveRes.Has(int(r)) {
			liveRes.Set(int(r))
			resWork = append(resWork, r)
		}
	}
	sites := refs.Sites(base)
	for _, site := range sites {
		switch {
		case site.In.Op != ir.OpMemPhi:
			if !site.Def {
				markRes(site.Res())
			}
		case site.Def:
			phiDef[site.Res()] = site.In
		}
	}
	defer func() {
		for _, site := range sites {
			if site.Def && site.In.Op == ir.OpMemPhi {
				phiDef[site.Res()] = nil
			}
		}
	}()
	for len(resWork) > 0 {
		r := resWork[len(resWork)-1]
		resWork = resWork[:len(resWork)-1]
		if phi := phiDef[r]; phi != nil {
			for _, use := range phi.MemUses {
				markRes(use.Res)
			}
		}
	}
	u.all.ForEach(func(r int) {
		if liveRes.Has(r) {
			return
		}
		in := defOf[ir.ResourceID(r)]
		if in == nil || in.Parent == nil {
			return
		}
		switch in.Op {
		case ir.OpMemPhi, ir.OpStore:
			in.Parent.Remove(in)
		}
	})
	var alive []*ir.Instr
	for _, phi := range newPhis {
		if phi.Parent != nil {
			alive = append(alive, phi)
		}
	}
	return alive, nil
}

type updater struct {
	dom  *cfg.DomTree
	base ir.ResourceID
	old  *bitset.Dense // resource IDs renamed away from
	all  *bitset.Dense // old, cloned and inserted-phi resource IDs
	// defBlocks holds the IDs of blocks containing a definition of a
	// resource in all: the only blocks reachingDef needs to scan.
	defBlocks *bitset.Dense
}

// indexOf returns in's position in its block, or 0 when the block holds
// no tracked definition and reachingDef will not scan it.
func (u *updater) indexOf(in *ir.Instr) int {
	b := in.Parent
	if !u.defBlocks.Has(int(b.ID)) {
		return 0
	}
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	panic(fmt.Sprintf("ssa: instruction %v not in its block %v", in.Op, b))
}

// reachingDef is the paper's computeReachingDef: the nearest definition
// of any resource in the tracked set that precedes position (blk, idx),
// found by scanning backward in the block and then walking the dominator
// tree toward the root, skipping blocks without a tracked definition.
// If no definition reaches, the base's live-in version 0 is returned.
// The definition made by skip is passed over: filling a phi's operand
// from a predecessor must not see the phi itself (possible when the
// predecessor is the phi's own block in a self-loop).
func (u *updater) reachingDef(blk *ir.Block, idx int, skip *ir.Instr) ir.ResourceID {
	for b := blk; ; {
		if u.defBlocks.Has(int(b.ID)) {
			instrs := b.Instrs
			limit := len(instrs)
			if b == blk {
				limit = idx
			}
			for i := limit - 1; i >= 0; i-- {
				in := instrs[i]
				if in == skip {
					continue
				}
				for _, d := range in.MemDefs {
					if u.all.Has(int(d.Res)) {
						return d.Res
					}
				}
			}
		}
		next := u.dom.Idom(b)
		if next == nil || next == b {
			return u.base // live-in version 0
		}
		b = next
	}
}
