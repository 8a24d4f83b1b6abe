package ir

import (
	"fmt"
	"slices"
)

// Clone returns a deep copy of the function: blocks, instructions, CFG
// edges, stack slots, and the memory resource table are all fresh
// objects, while program-level state (the Prog pointer and Global
// objects referenced by memory locations) stays shared. Block IDs,
// register numbers, and resource IDs are preserved, so a clone prints
// identically to the original.
//
// The clone is not registered in the program; it serves as a scratch
// copy for analyses and trial transformations that must leave f
// untouched.
func (f *Function) Clone() *Function { return f.cloneWith(nil) }

// Adopt returns a deep copy of f, a function of another program
// compiled from the same source, made to belong to p: every memory
// location naming one of f's globals is remapped to p's global at the
// same position. The copy is not registered; Program.ReplaceFunction
// swaps it in. The pipeline promotes the frontend's program in place
// and rolls a function back by recompiling the source and adopting
// the fresh function.
func (p *Program) Adopt(f *Function) *Function {
	src := f.Prog.Globals
	if len(src) != len(p.Globals) {
		panic(fmt.Sprintf("ir: adopting %s: %d globals into a program with %d", f.Name, len(src), len(p.Globals)))
	}
	globals := make(map[*Global]*Global, len(src))
	for i, g := range src {
		if g.Name != p.Globals[i].Name {
			panic(fmt.Sprintf("ir: adopting %s: global %d is %s, want %s", f.Name, i, g.Name, p.Globals[i].Name))
		}
		globals[g] = p.Globals[i]
	}
	nf := f.cloneWith(globals)
	nf.Prog = p
	return nf
}

// cloneWith deep-copies f, remapping global locations through globals
// when it is non-nil and sharing the Global objects otherwise.
func (f *Function) cloneWith(globals map[*Global]*Global) *Function {
	nf := &Function{
		Name:       f.Name,
		Params:     slices.Clone(f.Params),
		Prog:       f.Prog,
		NumRegs:    f.NumRegs,
		regNames:   slices.Clone(f.regNames),
		nextBlock:  f.nextBlock,
		cfgVersion: f.cfgVersion,
	}
	nf.maxVer = slices.Clone(f.maxVer)

	slotMap := make(map[*Slot]*Slot, len(f.Slots))
	for _, s := range f.Slots {
		ns := &Slot{
			Name:       s.Name,
			Size:       s.Size,
			IsArray:    s.IsArray,
			FieldNames: slices.Clone(s.FieldNames),
			AddrTaken:  s.AddrTaken,
			Escapes:    s.Escapes,
			Index:      s.Index,
		}
		slotMap[s] = ns
		nf.Slots = append(nf.Slots, ns)
	}
	remapLoc := func(l MemLoc) MemLoc {
		switch {
		case l.Kind == LocSlot:
			l.Slot = slotMap[l.Slot]
		case l.Kind == LocGlobal && globals != nil:
			l.Global = globals[l.Global]
		}
		return l
	}

	// Resources, blocks and instructions are copied into one backing
	// array per kind, and operand lists into one per element type: a
	// handful of allocations per clone instead of several per
	// instruction. Operand slices are capped at their length, so an
	// append reallocates instead of running into its neighbour.
	resources := make([]Resource, len(f.Resources))
	nf.Resources = make([]*Resource, len(f.Resources))
	for i, r := range f.Resources {
		resources[i] = *r
		resources[i].Loc = remapLoc(r.Loc)
		nf.Resources[i] = &resources[i]
	}

	ninstrs, nvals, nrefs := 0, 0, 0
	for _, b := range f.Blocks {
		ninstrs += len(b.Instrs)
		for _, in := range b.Instrs {
			nvals += len(in.Args)
			nrefs += len(in.MemDefs) + len(in.MemUses)
		}
	}
	instrs := make([]Instr, ninstrs)
	vals := make([]Value, nvals)
	refs := make([]MemRef, nrefs)
	cloneVals := func(s []Value) []Value {
		if s == nil {
			return nil
		}
		c := vals[:len(s):len(s)]
		vals = vals[len(s):]
		copy(c, s)
		return c
	}
	cloneRefs := func(s []MemRef) []MemRef {
		if s == nil {
			return nil
		}
		c := refs[:len(s):len(s)]
		refs = refs[len(s):]
		copy(c, s)
		return c
	}

	blocks := make([]Block, len(f.Blocks))
	byID := make([]*Block, f.nextBlock)
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		blocks[i] = Block{ID: b.ID, Func: nf}
		byID[b.ID] = &blocks[i]
		nf.Blocks[i] = &blocks[i]
	}
	for i, b := range f.Blocks {
		nb := &blocks[i]
		nb.Preds = make([]*Block, len(b.Preds))
		for i, p := range b.Preds {
			nb.Preds[i] = byID[p.ID]
		}
		nb.Succs = make([]*Block, len(b.Succs))
		for i, s := range b.Succs {
			nb.Succs[i] = byID[s.ID]
		}
		nb.Instrs = make([]*Instr, len(b.Instrs))
		for i, in := range b.Instrs {
			c := &instrs[0]
			instrs = instrs[1:]
			*c = Instr{
				Op:      in.Op,
				Dst:     in.Dst,
				Args:    cloneVals(in.Args),
				Callee:  in.Callee,
				Loc:     remapLoc(in.Loc),
				MemDefs: cloneRefs(in.MemDefs),
				MemUses: cloneRefs(in.MemUses),
				Parent:  nb,
			}
			nb.Instrs[i] = c
		}
	}
	return nf
}
