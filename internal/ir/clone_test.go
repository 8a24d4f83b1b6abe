package ir_test

import (
	"testing"

	"repro/internal/ir"
)

// buildCloneFixture makes a small two-block function with a slot, a
// global, resources, a phi, and memory references — one of everything
// Clone has to copy.
func buildCloneFixture() (*ir.Program, *ir.Function) {
	p := ir.NewProgram()
	g := p.AddGlobal("x", 1, false, nil)
	f := ir.NewFunction(p, "main")
	slot := f.NewSlot("a", 1, false, nil)
	res := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(g, 0))

	r0 := f.NewReg("t")
	r1 := f.NewReg("u")
	r2 := f.NewReg("phi")

	b0, b1 := f.NewBlock(), f.NewBlock()
	ir.AddEdge(b0, b1)
	ir.AddEdge(b1, b1)

	ld := ir.NewInstr(ir.OpLoad, r0)
	ld.Loc = ir.GlobalLoc(g, 0)
	ld.MemUses = []ir.MemRef{{Res: res.ID}}
	b0.Append(ld)
	st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.RegVal(r0))
	st.Loc = ir.SlotLoc(slot, 0)
	st.MemDefs = []ir.MemRef{{Res: res.ID}}
	b0.Append(st)
	b0.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	phi := ir.NewInstr(ir.OpPhi, r2, ir.RegVal(r0), ir.RegVal(r2))
	b1.Append(phi)
	b1.Append(ir.NewInstr(ir.OpAdd, r1, ir.RegVal(r2), ir.ConstVal(1)))
	b1.Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(r1)))
	// Make b1 a proper 2-succ branch target: b1 -> b1 already; add exit.
	b2 := f.NewBlock()
	ir.AddEdge(b1, b2)
	b2.Append(ir.NewInstr(ir.OpRet, ir.NoReg))
	return p, f
}

func TestClonePrintsIdentically(t *testing.T) {
	_, f := buildCloneFixture()
	c := f.Clone()
	if got, want := c.String(), f.String(); got != want {
		t.Fatalf("clone prints differently:\n--- original\n%s\n--- clone\n%s", want, got)
	}
	if err := c.Verify(ir.VerifyCFG); err != nil {
		t.Fatalf("clone fails verify: %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	_, f := buildCloneFixture()
	c := f.Clone()

	// Mutating the original must not affect the clone.
	before := c.String()
	f.Entry().Instrs[0].Op = ir.OpDummyLoad
	f.Entry().Instrs[0].MemUses = nil
	f.Resources[0].Name = "mutated"
	f.Slots[0].Name = "mutated"
	if c.String() != before {
		t.Fatal("mutating original leaked into clone")
	}

	// The clone's blocks, instrs, slots, and resources are fresh objects.
	if c.Entry() == f.Entry() {
		t.Fatal("clone shares blocks")
	}
	if c.Slots[0] == f.Slots[0] {
		t.Fatal("clone shares slots")
	}
	if c.Resources[0] == f.Resources[0] {
		t.Fatal("clone shares resources")
	}
	for _, b := range c.Blocks {
		if b.Func != c {
			t.Fatalf("clone block %v points at wrong function", b)
		}
		for _, in := range b.Instrs {
			if in.Parent != b {
				t.Fatalf("clone instr in %v has wrong parent", b)
			}
			if in.Loc.Kind == ir.LocSlot && in.Loc.Slot == f.Slots[0] {
				t.Fatal("clone instruction references original slot")
			}
		}
	}
}

func TestCloneSharesGlobals(t *testing.T) {
	p, f := buildCloneFixture()
	c := f.Clone()
	orig := f.Entry().Instrs[0].Loc.Global
	cl := c.Entry().Instrs[0].Loc.Global
	if orig != cl || cl != p.Globals[0] {
		t.Fatal("clone must share Global objects with the program")
	}
}

// TestAdoptRemapsGlobals adopts a function of one program into another
// built the same way: the copy prints identically, belongs to the
// adopting program, names that program's globals, and shares no object
// with the function it was copied from.
func TestAdoptRemapsGlobals(t *testing.T) {
	p, _ := buildCloneFixture()
	_, src := buildCloneFixture()
	a := p.Adopt(src)
	if got, want := a.String(), src.String(); got != want {
		t.Fatalf("adopted function prints differently:\n--- source\n%s\n--- adopted\n%s", want, got)
	}
	if a.Prog != p {
		t.Fatal("adopted function does not belong to the adopting program")
	}
	if a.Entry().Instrs[0].Loc.Global != p.Globals[0] || a.Resources[0].Loc.Global != p.Globals[0] {
		t.Fatal("adopted function does not name the adopting program's global")
	}
	if a.Entry() == src.Entry() || a.Slots[0] == src.Slots[0] || a.Resources[0] == src.Resources[0] {
		t.Fatal("adopted function shares objects with its source")
	}

	other := ir.NewProgram()
	defer func() {
		if recover() == nil {
			t.Fatal("adopting into a program with other globals did not panic")
		}
	}()
	other.Adopt(src)
}

func TestReplaceFunction(t *testing.T) {
	p, f := buildCloneFixture()
	c := f.Clone()
	p.ReplaceFunction(c)
	if p.Func("main") != c {
		t.Fatal("ReplaceFunction did not update the name index")
	}
	found := false
	for _, fn := range p.Funcs {
		if fn == f {
			t.Fatal("original function still registered")
		}
		if fn == c {
			found = true
		}
	}
	if !found {
		t.Fatal("replacement not in Funcs")
	}
	if c.Prog != p {
		t.Fatal("replacement Prog pointer not set")
	}
}
