// Package opt provides the scalar cleanup passes that run after
// register promotion: copy propagation and dead code elimination. The
// promotion algorithm deliberately leaves its transformation residue —
// loads replaced by copy instructions, register phis mirroring memory
// phis, dead memory phis — and these passes sweep it away, exactly as
// the paper's cleanup() step does.
package opt

import (
	"repro/internal/ir"
	"repro/internal/ssa"
)

// CopyPropagate rewrites every use of a register defined by `dst = copy
// src` to src directly and removes the copies. It resolves copy chains
// and returns the number of copies removed. The function must be in SSA
// form.
func CopyPropagate(f *ir.Function) int {
	return new(cleaner).copyPropagate(f)
}

// DCE removes instructions whose results are never used and which have
// no side effects: dead arithmetic, dead loads, dead copies, dead
// register phis, and dead memory phis. Stores, calls, prints, and
// terminators are roots. Liveness propagates through both the register
// operand graph and the memory version graph (a live instruction's
// memory uses keep the defining memphi alive). Returns the number of
// instructions removed.
func DCE(f *ir.Function) int {
	return new(cleaner).dce(f)
}

// cleaner holds the dense tables of CopyPropagate and DCE, indexed by
// register, resource, or instruction position, so the rounds of one
// Cleanup reuse them. Each pass resizes them to the function's current
// register and resource counts, which grow as promotion allocates.
type cleaner struct {
	repl   []ir.Value // copy target -> source; valid where isCopy
	isCopy []bool

	instrs []*ir.Instr // every instruction, in block order
	regDef []int32     // register -> 1 + position of its definition, 0 if none
	resDef []int32     // resource -> 1 + position of its definition, 0 if none
	live   []bool      // by position
	work   []int32
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (c *cleaner) copyPropagate(f *ir.Function) int {
	// Map each copy target to its (chain-resolved) source value.
	c.repl = resize(c.repl, f.NumRegs)
	c.isCopy = resize(c.isCopy, f.NumRegs)
	copies := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCopy {
				c.repl[in.Dst] = in.Args[0]
				c.isCopy[in.Dst] = true
				copies++
			}
		}
	}
	if copies == 0 {
		return 0
	}
	resolve := func(v ir.Value) ir.Value {
		seen := 0
		for !v.IsConst() && c.isCopy[v.Reg()] {
			v = c.repl[v.Reg()]
			if seen++; seen > copies {
				break // defensive: cyclic copies cannot occur in SSA
			}
		}
		return v
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if !a.IsConst() && c.isCopy[a.Reg()] {
					in.Args[i] = resolve(a)
				}
			}
		}
	}
	for _, b := range f.Blocks {
		b.RemoveIf(func(in *ir.Instr) bool { return in.Op == ir.OpCopy })
	}
	return copies
}

func (c *cleaner) dce(f *ir.Function) int {
	c.instrs = c.instrs[:0]
	c.regDef = resize(c.regDef, f.NumRegs)
	c.resDef = resize(c.resDef, len(f.Resources))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			c.instrs = append(c.instrs, in)
			pos := int32(len(c.instrs))
			if in.HasDst() {
				c.regDef[in.Dst] = pos
			}
			for _, d := range in.MemDefs {
				c.resDef[d.Res] = pos
			}
		}
	}

	c.live = resize(c.live, len(c.instrs))
	c.work = c.work[:0]
	mark := func(pos int32) {
		if pos > 0 && !c.live[pos-1] {
			c.live[pos-1] = true
			c.work = append(c.work, pos-1)
		}
	}
	for i, in := range c.instrs {
		if in.Op.HasSideEffects() {
			mark(int32(i + 1))
		}
	}
	for len(c.work) > 0 {
		in := c.instrs[c.work[len(c.work)-1]]
		c.work = c.work[:len(c.work)-1]
		for _, a := range in.Args {
			if !a.IsConst() {
				mark(c.regDef[a.Reg()])
			}
		}
		for _, u := range in.MemUses {
			mark(c.resDef[u.Res])
		}
	}

	// The positions run through the blocks in order, so each block's
	// marks are the next len(b.Instrs) entries of live.
	removed, pos := 0, 0
	for _, b := range f.Blocks {
		removed += b.RemoveIf(func(*ir.Instr) bool {
			pos++
			return !c.live[pos-1]
		})
	}
	return removed
}

// Cleanup runs the full post-promotion sweep: copy propagation, dead
// code elimination, and trivial phi pruning, iterating until nothing
// changes.
func Cleanup(f *ir.Function) {
	var c cleaner
	for {
		n := c.copyPropagate(f)
		n += c.dce(f)
		n += ssa.PruneTrivialPhis(f)
		if n == 0 {
			return
		}
	}
}
