package ir

import (
	"strings"
	"testing"
)

// buildDiamond constructs:
//
//	b0: br r0, b1, b2
//	b1: jmp b3
//	b2: jmp b3
//	b3: ret
func buildDiamond(t *testing.T) *Function {
	t.Helper()
	p := NewProgram()
	f := NewFunction(p, "diamond")
	cond := f.NewReg("cond")
	f.Params = []RegID{cond}
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	b0.Append(NewInstr(OpBr, NoReg, RegVal(cond)))
	b1.Append(NewInstr(OpJmp, NoReg))
	b2.Append(NewInstr(OpJmp, NoReg))
	b3.Append(NewInstr(OpRet, NoReg))
	AddEdge(b0, b1)
	AddEdge(b0, b2)
	AddEdge(b1, b3)
	AddEdge(b2, b3)
	return f
}

func TestVerifyDiamond(t *testing.T) {
	f := buildDiamond(t)
	if err := f.Verify(VerifySSA); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	p := NewProgram()
	f := NewFunction(p, "broken")
	b := f.NewBlock()
	r := f.NewReg("")
	b.Append(NewInstr(OpCopy, r, ConstVal(1)))
	if err := f.Verify(VerifyCFG); err == nil {
		t.Fatal("Verify accepted block without terminator")
	}
}

func TestVerifyCatchesDoubleDef(t *testing.T) {
	p := NewProgram()
	f := NewFunction(p, "dd")
	b := f.NewBlock()
	r := f.NewReg("")
	b.Append(NewInstr(OpCopy, r, ConstVal(1)))
	b.Append(NewInstr(OpCopy, r, ConstVal(2)))
	b.Append(NewInstr(OpRet, NoReg))
	if err := f.Verify(VerifySSA); err == nil {
		t.Fatal("Verify accepted double definition in SSA mode")
	}
}

func TestVerifyCatchesPhiArity(t *testing.T) {
	f := buildDiamond(t)
	b3 := f.Blocks[3]
	r := f.NewReg("")
	phi := NewInstr(OpPhi, r, ConstVal(1)) // one arg, two preds
	b3.insertAt(phi, 0)
	if err := f.Verify(VerifyCFG); err == nil {
		t.Fatal("Verify accepted phi with wrong arity")
	}
}

func TestVerifyCatchesBrSameTargets(t *testing.T) {
	p := NewProgram()
	f := NewFunction(p, "same")
	c := f.NewReg("c")
	f.Params = []RegID{c}
	b0, b1 := f.NewBlock(), f.NewBlock()
	b0.Append(NewInstr(OpBr, NoReg, RegVal(c)))
	b1.Append(NewInstr(OpRet, NoReg))
	AddEdge(b0, b1)
	AddEdge(b0, b1)
	if err := f.Verify(VerifyCFG); err == nil {
		t.Fatal("Verify accepted br with identical targets")
	}
}

func TestSplitEdgePreservesPhiAssociation(t *testing.T) {
	f := buildDiamond(t)
	b0, b1, b2, b3 := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	_ = b0
	v1 := f.NewReg("")
	v2 := f.NewReg("")
	dst := f.NewReg("")
	// Need defs for SSA check.
	b1.insertAt(NewInstr(OpCopy, v1, ConstVal(10)), 0)
	b2.insertAt(NewInstr(OpCopy, v2, ConstVal(20)), 0)
	phi := NewInstr(OpPhi, dst, RegVal(v1), RegVal(v2))
	b3.insertAt(phi, 0)
	if err := f.Verify(VerifySSA); err != nil {
		t.Fatalf("pre-split Verify: %v", err)
	}

	idx1 := b3.PredIndex(b1)
	mid := f.SplitEdge(b1, b3, -1)
	if b3.Preds[idx1] != mid {
		t.Fatalf("split block not at old predecessor index: preds=%v", b3.Preds)
	}
	if got := phi.Args[idx1]; !got.IsReg(v1) {
		t.Fatalf("phi arg moved: got %v want r%d", got, v1)
	}
	if err := f.Verify(VerifySSA); err != nil {
		t.Fatalf("post-split Verify: %v", err)
	}
	if mid.Term().Op != OpJmp {
		t.Fatalf("split block terminator = %v, want jmp", mid.Term().Op)
	}
}

func TestRemovePredDropsPhiArg(t *testing.T) {
	f := buildDiamond(t)
	b1, b2, b3 := f.Blocks[1], f.Blocks[2], f.Blocks[3]
	v1, v2, dst := f.NewReg(""), f.NewReg(""), f.NewReg("")
	b1.insertAt(NewInstr(OpCopy, v1, ConstVal(1)), 0)
	b2.insertAt(NewInstr(OpCopy, v2, ConstVal(2)), 0)
	b3.insertAt(NewInstr(OpPhi, dst, RegVal(v1), RegVal(v2)), 0)

	b3.RemovePred(b1)
	phi := b3.Instrs[0]
	if len(phi.Args) != 1 || !phi.Args[0].IsReg(v2) {
		t.Fatalf("phi args after RemovePred = %v", phi.Args)
	}
}

func TestInsertHelpers(t *testing.T) {
	p := NewProgram()
	f := NewFunction(p, "ins")
	b := f.NewBlock()
	r0, r1, r2, r3 := f.NewReg(""), f.NewReg(""), f.NewReg(""), f.NewReg("")
	phi := NewInstr(OpPhi, r0)
	b.Append(phi)
	term := NewInstr(OpRet, NoReg)
	b.Append(term)

	mid := NewInstr(OpCopy, r1, ConstVal(1))
	b.InsertAfterPhis(mid)
	pre := NewInstr(OpCopy, r2, ConstVal(2))
	b.InsertBeforeTerm(pre)
	after := NewInstr(OpCopy, r3, ConstVal(3))
	b.InsertAfter(after, mid)

	wantOrder := []*Instr{phi, mid, after, pre, term}
	if len(b.Instrs) != len(wantOrder) {
		t.Fatalf("got %d instrs, want %d", len(b.Instrs), len(wantOrder))
	}
	for i, in := range wantOrder {
		if b.Instrs[i] != in {
			t.Fatalf("instr %d = %s, want %s", i, b.Instrs[i].Op, in.Op)
		}
		if in.Parent != b {
			t.Fatalf("instr %d has wrong parent", i)
		}
	}

	b.Remove(mid)
	if len(b.Instrs) != 4 || mid.Parent != nil {
		t.Fatalf("Remove failed: %d instrs, parent=%v", len(b.Instrs), mid.Parent)
	}

	p1, p2 := NewInstr(OpPhi, f.NewReg("")), NewInstr(OpMemPhi, NoReg)
	b.PrependPhis([]*Instr{p1, p2})
	if b.Instrs[0] != p1 || b.Instrs[1] != p2 || b.Instrs[2] != phi || p1.Parent != b || p2.Parent != b {
		t.Fatalf("PrependPhis: block starts %s %s %s", b.Instrs[0].Op, b.Instrs[1].Op, b.Instrs[2].Op)
	}
	if n := b.RemoveIf(func(*Instr) bool { return false }); n != 0 || len(b.Instrs) != 6 {
		t.Fatalf("RemoveIf of nothing removed %d, left %d", n, len(b.Instrs))
	}
	if n := b.RemoveIf(func(in *Instr) bool { return in.Op.IsPhi() }); n != 3 {
		t.Fatalf("RemoveIf removed %d phis, want 3", n)
	}
	for i, in := range []*Instr{after, pre, term} {
		if b.Instrs[i] != in {
			t.Fatalf("after RemoveIf, instr %d = %s, want %s", i, b.Instrs[i].Op, in.Op)
		}
	}
	if len(b.Instrs) != 3 || phi.Parent != nil || p1.Parent != nil || p2.Parent != nil {
		t.Fatalf("RemoveIf left %d instrs or a removed phi's parent set", len(b.Instrs))
	}
}

func TestResourceVersioning(t *testing.T) {
	p := NewProgram()
	g := p.AddGlobal("x", 1, false, nil)
	f := NewFunction(p, "rv")
	base := f.AddResource("x", ResScalar, GlobalLoc(g, 0))
	if !base.IsBase() || base.Version != 0 {
		t.Fatalf("base resource malformed: %+v", base)
	}
	v1 := f.NewVersion(base.ID)
	v2 := f.NewVersion(v1.ID) // versioning a version still chains to base
	if v1.Version != 1 || v2.Version != 2 {
		t.Fatalf("versions = %d, %d; want 1, 2", v1.Version, v2.Version)
	}
	if v2.Orig != base.ID || f.BaseOf(v2.ID) != base {
		t.Fatalf("BaseOf broken: orig=%d", v2.Orig)
	}
	if v1.String() != "x.1" {
		t.Fatalf("String = %q, want x.1", v1.String())
	}
	if !v1.Loc.SameCell(base.Loc) {
		t.Fatal("version does not share base location")
	}
}

func TestValueAccessors(t *testing.T) {
	c := ConstVal(42)
	r := RegVal(7)
	if !c.IsConst() || c.Const() != 42 || c.String() != "#42" {
		t.Fatalf("const value malformed: %v", c)
	}
	if r.IsConst() || r.Reg() != 7 || r.String() != "r7" {
		t.Fatalf("reg value malformed: %v", r)
	}
	if !r.IsReg(7) || r.IsReg(8) || c.IsReg(42) {
		t.Fatal("IsReg misbehaves")
	}
}

func TestPrinterMentionsResources(t *testing.T) {
	p := NewProgram()
	g := p.AddGlobal("x", 1, false, nil)
	f := NewFunction(p, "pr")
	res := f.AddResource("x", ResScalar, GlobalLoc(g, 0))
	b := f.NewBlock()
	r := f.NewReg("t")
	ld := NewInstr(OpLoad, r)
	ld.Loc = GlobalLoc(g, 0)
	ld.MemUses = []MemRef{{Res: res.ID}}
	b.Append(ld)
	st := NewInstr(OpStore, NoReg, RegVal(r))
	st.Loc = GlobalLoc(g, 0)
	st.MemDefs = []MemRef{{Res: res.ID}}
	b.Append(st)
	b.Append(NewInstr(OpRet, NoReg))

	out := f.String()
	for _, want := range []string{"load x", "store x = r0", "{x.0}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q:\n%s", want, out)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op         Op
		term, phi  bool
		sideEffect bool
	}{
		{OpJmp, true, false, true},
		{OpBr, true, false, true},
		{OpRet, true, false, true},
		{OpPhi, false, true, false},
		{OpMemPhi, false, true, false},
		{OpAdd, false, false, false},
		{OpStore, false, false, true},
		{OpCall, false, false, true},
		{OpLoad, false, false, false},
		{OpPrint, false, false, true},
	}
	for _, c := range cases {
		if c.op.IsTerminator() != c.term {
			t.Errorf("%s.IsTerminator() = %v", c.op, !c.term)
		}
		if c.op.IsPhi() != c.phi {
			t.Errorf("%s.IsPhi() = %v", c.op, !c.phi)
		}
		if c.op.HasSideEffects() != c.sideEffect {
			t.Errorf("%s.HasSideEffects() = %v", c.op, !c.sideEffect)
		}
	}
}
