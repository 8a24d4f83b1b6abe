package ssa

import "repro/internal/ir"

// PruneTrivialPhis removes phi and memphi instructions whose operands
// (ignoring self-references) are all the same value, rewriting their
// uses to that value. It iterates to a fixed point, since removing one
// trivial phi can make another trivial, and returns the number of phis
// removed. Memory phis merging a single resource version arise routinely
// from pessimistic phi placement; keeping them would distort the
// promotion algorithm's SSA webs, so Build always prunes.
func PruneTrivialPhis(f *ir.Function) int {
	// Replacement tables indexed by register and resource: regRepl[r]
	// is valid where hasReg[r]; resRepl[r] is NoResource where unset.
	// Pruning allocates no registers or resources, so they are sized
	// once, when the first trivial phi turns up.
	var regRepl []ir.Value
	var hasReg []bool
	var resRepl []ir.ResourceID
	tables := func() {
		if hasReg != nil {
			return
		}
		regRepl = make([]ir.Value, f.NumRegs)
		hasReg = make([]bool, f.NumRegs)
		resRepl = make([]ir.ResourceID, len(f.Resources))
		for i := range resRepl {
			resRepl[i] = ir.NoResource
		}
	}
	var dead []*ir.Instr
	var deadIn []*ir.Block // blocks holding some dead phi, once each
	removed := 0
	for {
		for _, b := range f.Blocks {
			n := len(dead)
			for _, phi := range b.Phis() {
				switch phi.Op {
				case ir.OpPhi:
					if v, ok := trivialRegPhi(phi); ok {
						tables()
						regRepl[phi.Dst] = v
						hasReg[phi.Dst] = true
						dead = append(dead, phi)
					}
				case ir.OpMemPhi:
					if r, ok := trivialMemPhi(phi); ok {
						tables()
						resRepl[phi.MemDefs[0].Res] = r
						dead = append(dead, phi)
					}
				}
			}
			if len(dead) > n {
				deadIn = append(deadIn, b)
			}
		}
		if len(dead) == 0 {
			return removed
		}
		// Resolve replacement chains (a phi may map to another dead
		// phi's target).
		resolveReg := func(v ir.Value) ir.Value {
			for !v.IsConst() && hasReg[v.Reg()] {
				v = regRepl[v.Reg()]
			}
			return v
		}
		resolveRes := func(r ir.ResourceID) ir.ResourceID {
			for resRepl[r] != ir.NoResource {
				r = resRepl[r]
			}
			return r
		}

		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, a := range in.Args {
					if !a.IsConst() && hasReg[a.Reg()] {
						in.Args[i] = resolveReg(a)
					}
				}
				for i := range in.MemUses {
					if r := in.MemUses[i].Res; resRepl[r] != ir.NoResource {
						in.MemUses[i].Res = resolveRes(r)
					}
				}
			}
		}
		// Drop the dead phis, one compaction per block that has any,
		// and reset their table entries for the next round.
		isDead := func(in *ir.Instr) bool {
			switch in.Op {
			case ir.OpPhi:
				return hasReg[in.Dst]
			case ir.OpMemPhi:
				return resRepl[in.MemDefs[0].Res] != ir.NoResource
			}
			return false
		}
		for _, b := range deadIn {
			b.RemoveIf(isDead)
		}
		for _, phi := range dead {
			if phi.Op == ir.OpPhi {
				hasReg[phi.Dst] = false
			} else {
				resRepl[phi.MemDefs[0].Res] = ir.NoResource
			}
		}
		removed += len(dead)
		dead, deadIn = dead[:0], deadIn[:0]
	}
}

// trivialRegPhi reports whether phi merges a single distinct value and
// returns it. A phi all of whose operands are itself never executes
// meaningfully; it maps to the constant 0.
func trivialRegPhi(phi *ir.Instr) (ir.Value, bool) {
	var uniq ir.Value
	found := false
	for _, a := range phi.Args {
		if a.IsReg(phi.Dst) {
			continue // self-reference
		}
		if !found {
			uniq = a
			found = true
			continue
		}
		if a != uniq {
			return ir.Value{}, false
		}
	}
	if !found {
		return ir.ConstVal(0), true
	}
	return uniq, true
}

// trivialMemPhi reports whether a memphi merges a single distinct
// resource version and returns it.
func trivialMemPhi(phi *ir.Instr) (ir.ResourceID, bool) {
	self := phi.MemDefs[0].Res
	uniq := ir.NoResource
	for _, u := range phi.MemUses {
		if u.Res == self {
			continue
		}
		if uniq == ir.NoResource {
			uniq = u.Res
			continue
		}
		if u.Res != uniq {
			return ir.NoResource, false
		}
	}
	if uniq == ir.NoResource {
		return ir.NoResource, false // all-self memphi: keep (degenerate)
	}
	return uniq, true
}
