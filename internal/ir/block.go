package ir

import "fmt"

// BlockID identifies a basic block within a function. IDs are assigned
// densely at creation and never reused, so they stay stable across CFG
// edits (new blocks get fresh IDs).
type BlockID int32

// Block is a basic block: a phi prefix followed by ordinary instructions
// and exactly one terminator. Preds and Succs describe the CFG; phi and
// memphi arguments are positional with Preds.
type Block struct {
	ID     BlockID
	Instrs []*Instr
	Preds  []*Block
	Succs  []*Block
	Func   *Function
}

// String renders the block label, "bN".
func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// Term returns the block terminator, or nil if the block is unterminated
// (legal only mid-construction).
func (b *Block) Term() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op.IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// Append adds an instruction at the end of the block (after any existing
// terminator check is the caller's concern during construction).
func (b *Block) Append(in *Instr) *Instr {
	in.Parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in immediately before pos, which must be in this
// block.
func (b *Block) InsertBefore(in, pos *Instr) {
	i := b.indexOf(pos)
	b.insertAt(in, i)
}

// InsertAfter inserts in immediately after pos, which must be in this
// block.
func (b *Block) InsertAfter(in, pos *Instr) {
	i := b.indexOf(pos)
	b.insertAt(in, i+1)
}

// InsertBeforeTerm inserts in immediately before the block terminator, or
// appends if the block is unterminated.
func (b *Block) InsertBeforeTerm(in *Instr) {
	if t := b.Term(); t != nil {
		b.InsertBefore(in, t)
		return
	}
	b.Append(in)
}

// InsertPhi inserts a phi or memphi instruction at the start of the
// block's phi prefix.
func (b *Block) InsertPhi(phi *Instr) {
	if !phi.Op.IsPhi() {
		panic("ir: InsertPhi on non-phi instruction")
	}
	b.insertAt(phi, 0)
}

// PrependPhis inserts phis, in the given order, at the start of the
// block's phi prefix: the block InsertPhi would leave after inserting
// them one at a time in reverse order, for one copy of the block.
func (b *Block) PrependPhis(phis []*Instr) {
	for _, phi := range phis {
		if !phi.Op.IsPhi() {
			panic("ir: PrependPhis with non-phi instruction")
		}
		phi.Parent = b
	}
	b.Instrs = append(phis[:len(phis):len(phis)], b.Instrs...)
}

// InsertAfterPhis inserts in after the block's phi prefix.
func (b *Block) InsertAfterPhis(in *Instr) {
	i := 0
	for i < len(b.Instrs) && b.Instrs[i].Op.IsPhi() {
		i++
	}
	b.insertAt(in, i)
}

func (b *Block) insertAt(in *Instr, i int) {
	in.Parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// Remove deletes in from the block. It panics if in is not present.
func (b *Block) Remove(in *Instr) {
	i := b.indexOf(in)
	copy(b.Instrs[i:], b.Instrs[i+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	in.Parent = nil
}

// RemoveIf deletes every instruction for which dead reports true, in
// one in-place pass that keeps the survivors' order, and returns how
// many it deleted. dead is called once per instruction, in block order.
// Removing many instructions this way costs one scan of the block,
// where Remove per instruction costs a scan each.
func (b *Block) RemoveIf(dead func(*Instr) bool) int {
	// Survivors before the first deletion stay where they are.
	i := 0
	for i < len(b.Instrs) && !dead(b.Instrs[i]) {
		i++
	}
	if i == len(b.Instrs) {
		return 0
	}
	b.Instrs[i].Parent = nil
	kept := b.Instrs[:i]
	for _, in := range b.Instrs[i+1:] {
		if dead(in) {
			in.Parent = nil
			continue
		}
		kept = append(kept, in)
	}
	n := len(b.Instrs) - len(kept)
	clear(b.Instrs[len(kept):])
	b.Instrs = kept
	return n
}

func (b *Block) indexOf(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	panic(fmt.Sprintf("ir: instruction %v not in block %v", in.Op, b))
}

// Phis returns the block's phi prefix (both register and memory phis).
func (b *Block) Phis() []*Instr {
	i := 0
	for i < len(b.Instrs) && b.Instrs[i].Op.IsPhi() {
		i++
	}
	return b.Instrs[:i]
}

// PredIndex returns the position of p in the predecessor list, or -1.
func (b *Block) PredIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// SuccIndex returns the position of s in the successor list, or -1.
func (b *Block) SuccIndex(s *Block) int {
	for i, q := range b.Succs {
		if q == s {
			return i
		}
	}
	return -1
}

// AddEdge links b -> s, appending to both edge lists. Phi arguments in s
// are not extended; use this only before phis exist or when the caller
// maintains them.
func AddEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
	if b.Func != nil {
		b.Func.MarkCFGChanged()
	}
}

// ReplacePred substitutes newPred for oldPred in b's predecessor list,
// preserving position so that phi arguments keep their association.
func (b *Block) ReplacePred(oldPred, newPred *Block) {
	i := b.PredIndex(oldPred)
	if i < 0 {
		panic(fmt.Sprintf("ir: %v is not a predecessor of %v", oldPred, b))
	}
	b.Preds[i] = newPred
	if b.Func != nil {
		b.Func.MarkCFGChanged()
	}
}

// RemovePred deletes predecessor p from b, removing the corresponding
// positional argument from every phi and memphi in b.
func (b *Block) RemovePred(p *Block) {
	i := b.PredIndex(p)
	if i < 0 {
		panic(fmt.Sprintf("ir: %v is not a predecessor of %v", p, b))
	}
	b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
	if b.Func != nil {
		b.Func.MarkCFGChanged()
	}
	for _, in := range b.Phis() {
		switch in.Op {
		case OpPhi:
			in.Args = append(in.Args[:i], in.Args[i+1:]...)
		case OpMemPhi:
			in.MemUses = append(in.MemUses[:i], in.MemUses[i+1:]...)
		}
	}
}
