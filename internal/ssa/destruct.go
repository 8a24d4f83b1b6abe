package ssa

import "repro/internal/ir"

// Destruct converts f out of SSA form:
//
//   - register phis become parallel copies at the end of each
//     predecessor, sequentialized with cycle-breaking temporaries;
//   - memory phis are deleted;
//   - every remaining memory reference collapses back to its base
//     resource, implementing the paper's rule that on leaving SSA form
//     "all of the singleton memory resources that refer to the same
//     memory location must be replaced by one unique name".
//
// The CFG must have no critical edges (Normalize guarantees this and no
// pass in this repository creates them), so predecessor-edge copies are
// safe.
func Destruct(f *ir.Function) {
	for _, b := range f.Blocks {
		phis := append([]*ir.Instr(nil), b.Phis()...)
		if len(phis) == 0 {
			continue
		}

		// Gather per-predecessor parallel copy lists from register phis.
		for pi, pred := range b.Preds {
			var dsts []ir.RegID
			var srcs []ir.Value
			for _, phi := range phis {
				if phi.Op != ir.OpPhi {
					continue
				}
				dst, src := phi.Dst, phi.Args[pi]
				if src.IsReg(dst) {
					continue // self-copy
				}
				dsts = append(dsts, dst)
				srcs = append(srcs, src)
			}
			emitParallelCopy(f, pred, dsts, srcs)
		}
		b.RemoveIf(func(in *ir.Instr) bool { return in.Op.IsPhi() })
	}

	// Collapse memory references to base resources.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i := range in.MemUses {
				in.MemUses[i].Res = f.BaseOf(in.MemUses[i].Res).ID
			}
			for i := range in.MemDefs {
				in.MemDefs[i].Res = f.BaseOf(in.MemDefs[i].Res).ID
			}
		}
	}
}

// emitParallelCopy emits the parallel assignment dsts := srcs at the end
// of pred (before its terminator), breaking copy cycles with fresh
// temporaries.
func emitParallelCopy(f *ir.Function, pred *ir.Block, dsts []ir.RegID, srcs []ir.Value) {
	type pair struct {
		dst ir.RegID
		src ir.Value
	}
	var pairs []pair
	for i := range dsts {
		pairs = append(pairs, pair{dsts[i], srcs[i]})
	}
	emit := func(dst ir.RegID, src ir.Value) {
		pred.InsertBeforeTerm(ir.NewInstr(ir.OpCopy, dst, src))
	}

	for len(pairs) > 0 {
		// A pair is ready when its destination is not needed as a source
		// by any other remaining pair.
		progress := false
		for i := 0; i < len(pairs); i++ {
			blocked := false
			for j := range pairs {
				if j != i && pairs[j].src.IsReg(pairs[i].dst) {
					blocked = true
					break
				}
			}
			if !blocked {
				emit(pairs[i].dst, pairs[i].src)
				pairs = append(pairs[:i], pairs[i+1:]...)
				progress = true
				i--
			}
		}
		if progress {
			continue
		}
		// Every remaining destination is also a pending source: a copy
		// cycle. Save one destination in a temp and retarget its readers.
		t := f.NewReg("")
		save := pairs[0].dst
		emit(t, ir.RegVal(save))
		for j := range pairs {
			if pairs[j].src.IsReg(save) {
				pairs[j].src = ir.RegVal(t)
			}
		}
	}
}
