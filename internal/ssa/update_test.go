package ssa

import (
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// figure9 builds the CFG of the paper's Example 2 (Figures 9 and 10):
//
//	b0 (entry) -> b1; b1 -> b2, b3; b2 -> b4, b5; b3 -> b5;
//	b4 -> b6; b5 -> b6; b6 -> b1 (back edge), b6 -> b7 (exit)
//
// Global x has its value defined in b1 (version x.1, the paper's x0)
// and used in b3, b4, and b5. The test then clones two stores — one in
// b2 (x.2, the paper's x1) and one in b3 before its use (x.3, the
// paper's x2) — and runs the incremental update.
type figure9 struct {
	f                          *ir.Function
	x                          ir.ResourceID // base
	v1, v2, v3                 ir.ResourceID
	b                          []*ir.Block
	defB1, useB3, useB4, useB5 *ir.Instr
	cloneB2, cloneB3           *ir.Instr
}

func buildFigure9(t *testing.T) *figure9 {
	t.Helper()
	p := ir.NewProgram()
	g := p.AddGlobal("x", 1, false, nil)
	f := ir.NewFunction(p, "fig9")
	base := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(g, 0))

	fg := &figure9{f: f, x: base.ID}
	for i := 0; i < 8; i++ {
		fg.b = append(fg.b, f.NewBlock())
	}
	b := fg.b
	edge := ir.AddEdge
	edge(b[0], b[1])
	edge(b[1], b[2])
	edge(b[1], b[3])
	edge(b[2], b[4])
	edge(b[2], b[5]) // the paper's deliberately unsplit edge
	edge(b[3], b[5])
	edge(b[4], b[6])
	edge(b[5], b[6])
	edge(b[6], b[1])
	edge(b[6], b[7])

	cond := f.NewReg("c")
	f.Params = []ir.RegID{cond}

	b[0].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	v1 := f.NewVersion(base.ID)
	fg.v1 = v1.ID
	fg.defB1 = ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(10))
	fg.defB1.Loc = ir.GlobalLoc(g, 0)
	fg.defB1.MemDefs = []ir.MemRef{{Res: v1.ID}}
	b[1].Append(fg.defB1)
	b[1].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))

	b[2].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))

	newLoad := func(use ir.ResourceID) *ir.Instr {
		r := f.NewReg("")
		ld := ir.NewInstr(ir.OpLoad, r)
		ld.Loc = ir.GlobalLoc(g, 0)
		ld.MemUses = []ir.MemRef{{Res: use}}
		return ld
	}
	fg.useB3 = newLoad(v1.ID)
	b[3].Append(fg.useB3)
	b[3].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	fg.useB4 = newLoad(v1.ID)
	b[4].Append(fg.useB4)
	b[4].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	fg.useB5 = newLoad(v1.ID)
	b[5].Append(fg.useB5)
	b[5].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	b[6].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	ret := ir.NewInstr(ir.OpRet, ir.NoReg)
	b[7].Append(ret)

	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("figure 9 base program invalid: %v", err)
	}
	return fg
}

// cloneStores inserts the two cloned definitions of x: one at the end
// of b2 and one in b3 before its use.
func (fg *figure9) cloneStores(t *testing.T) {
	t.Helper()
	f := fg.f
	g := f.Res(fg.x).Loc.Global

	v2 := f.NewVersion(fg.x)
	fg.v2 = v2.ID
	fg.cloneB2 = ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(20))
	fg.cloneB2.Loc = ir.GlobalLoc(g, 0)
	fg.cloneB2.MemDefs = []ir.MemRef{{Res: v2.ID}}
	fg.b[2].InsertBeforeTerm(fg.cloneB2)

	v3 := f.NewVersion(fg.x)
	fg.v3 = v3.ID
	fg.cloneB3 = ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(30))
	fg.cloneB3.Loc = ir.GlobalLoc(g, 0)
	fg.cloneB3.MemDefs = []ir.MemRef{{Res: v3.ID}}
	fg.b[3].InsertBefore(fg.cloneB3, fg.useB3)
}

func TestUpdateFigure9(t *testing.T) {
	fg := buildFigure9(t)
	fg.cloneStores(t)
	f := fg.f

	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	livePhis, err := UpdateForClonedResources(f, dom, df, NewRefIndex(f),
		[]ir.ResourceID{fg.v1}, []ir.ResourceID{fg.v2, fg.v3})
	if err != nil {
		t.Fatal(err)
	}

	// The use in b3 sits after the cloned store there: renamed to v3
	// (the paper's x2).
	if got := fg.useB3.MemUses[0].Res; got != fg.v3 {
		t.Errorf("use in b3 renamed to %s, want %s", f.Res(got), f.Res(fg.v3))
	}
	// The use in b4 is reached only by the b2 clone: renamed to v2 (x1).
	if got := fg.useB4.MemUses[0].Res; got != fg.v2 {
		t.Errorf("use in b4 renamed to %s, want %s", f.Res(got), f.Res(fg.v2))
	}
	// The use in b5 joins b2's and b3's clones: a phi target (x3).
	gotB5 := fg.useB5.MemUses[0].Res
	var phiB5 *ir.Instr
	for _, in := range fg.b[5].Phis() {
		if in.Op == ir.OpMemPhi {
			phiB5 = in
		}
	}
	if phiB5 == nil {
		t.Fatalf("no memphi in b5:\n%s", f)
	}
	if gotB5 != phiB5.MemDefs[0].Res {
		t.Errorf("use in b5 = %s, want the b5 phi target %s",
			f.Res(gotB5), f.Res(phiB5.MemDefs[0].Res))
	}
	ops := map[ir.ResourceID]bool{}
	for _, u := range phiB5.MemUses {
		ops[u.Res] = true
	}
	if !ops[fg.v2] || !ops[fg.v3] || len(ops) != 2 {
		t.Errorf("b5 phi merges %v, want {%s, %s}", ops, f.Res(fg.v2), f.Res(fg.v3))
	}

	// The phis at b1 and b6 (also in the IDF) are dead and must have
	// been removed, along with the original store in b1 whose version
	// no longer has uses — the cascade the paper describes.
	for _, blk := range []*ir.Block{fg.b[1], fg.b[6]} {
		for _, in := range blk.Phis() {
			if in.Op == ir.OpMemPhi {
				t.Errorf("dead memphi survived in %v", blk)
			}
		}
	}
	if fg.defB1.Parent != nil {
		t.Error("original store in b1 should have been deleted (its version has no uses)")
	}

	// Exactly one live phi (b5) was reported.
	if len(livePhis) != 1 || livePhis[0] != phiB5 {
		t.Errorf("live phis = %v, want [b5 phi]", livePhis)
	}

	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("post-update SSA invalid: %v\n%s", err, f)
	}
	if err := VerifyDominance(f); err != nil {
		t.Fatalf("post-update dominance: %v\n%s", err, f)
	}
}

func TestUpdateKeepsOldDefWithRemainingUses(t *testing.T) {
	// Same CFG, but with an extra use of x.1 in b1 right after its def
	// (before any clone can reach it) — the old def must survive.
	fg := buildFigure9(t)
	f := fg.f
	g := f.Res(fg.x).Loc.Global
	r := f.NewReg("")
	keep := ir.NewInstr(ir.OpLoad, r)
	keep.Loc = ir.GlobalLoc(g, 0)
	keep.MemUses = []ir.MemRef{{Res: fg.v1}}
	fg.b[1].InsertBefore(keep, fg.b[1].Term())
	fg.cloneStores(t)

	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	if _, err := UpdateForClonedResources(f, dom, df, NewRefIndex(f),
		[]ir.ResourceID{fg.v1}, []ir.ResourceID{fg.v2, fg.v3}); err != nil {
		t.Fatal(err)
	}
	if fg.defB1.Parent == nil {
		t.Error("store in b1 deleted despite a live use")
	}
	if keep.MemUses[0].Res != fg.v1 {
		t.Errorf("use adjacent to def renamed to %s, want unchanged %s",
			f.Res(keep.MemUses[0].Res), f.Res(fg.v1))
	}
	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("post-update SSA invalid: %v", err)
	}
}

func TestUpdateSingleClone(t *testing.T) {
	// Minimal case: def at entry, clone on one arm of a diamond, use at
	// the join. The join needs a phi merging old and new — the paper's
	// "both a new definition and an old one can reach a use" case.
	p := ir.NewProgram()
	g := p.AddGlobal("x", 1, false, nil)
	f := ir.NewFunction(p, "m")
	base := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(g, 0))
	cond := f.NewReg("c")
	f.Params = []ir.RegID{cond}

	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	ir.AddEdge(b0, b1)
	ir.AddEdge(b0, b2)
	ir.AddEdge(b1, b3)
	ir.AddEdge(b2, b3)

	v1 := f.NewVersion(base.ID)
	def := ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(1))
	def.Loc = ir.GlobalLoc(g, 0)
	def.MemDefs = []ir.MemRef{{Res: v1.ID}}
	b0.Append(def)
	b0.Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	b1.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	b2.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	r := f.NewReg("")
	use := ir.NewInstr(ir.OpLoad, r)
	use.Loc = ir.GlobalLoc(g, 0)
	use.MemUses = []ir.MemRef{{Res: v1.ID}}
	b3.Append(use)
	b3.Append(ir.NewInstr(ir.OpRet, ir.NoReg))

	v2 := f.NewVersion(base.ID)
	clone := ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(2))
	clone.Loc = ir.GlobalLoc(g, 0)
	clone.MemDefs = []ir.MemRef{{Res: v2.ID}}
	b1.InsertBeforeTerm(clone)

	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	live, err := UpdateForClonedResources(f, dom, df, NewRefIndex(f),
		[]ir.ResourceID{v1.ID}, []ir.ResourceID{v2.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 {
		t.Fatalf("want exactly one live phi, got %d\n%s", len(live), f)
	}
	phi := live[0]
	if phi.Parent != b3 {
		t.Errorf("phi placed in %v, want b3", phi.Parent)
	}
	if use.MemUses[0].Res != phi.MemDefs[0].Res {
		t.Error("join use not renamed to phi target")
	}
	ops := map[ir.ResourceID]bool{}
	for _, u := range phi.MemUses {
		ops[u.Res] = true
	}
	if !ops[v1.ID] || !ops[v2.ID] {
		t.Errorf("phi must merge old %s and cloned %s, got %v", v1, v2, ops)
	}
	// def still has a use (through the phi operand) and must survive.
	if def.Parent == nil {
		t.Error("old def deleted although reachable through the phi")
	}
	if err := VerifyDominance(f); err != nil {
		t.Fatalf("post-update: %v", err)
	}
}

func TestUpdateRejectsMixedBases(t *testing.T) {
	p := ir.NewProgram()
	gx := p.AddGlobal("x", 1, false, nil)
	gy := p.AddGlobal("y", 1, false, nil)
	f := ir.NewFunction(p, "m")
	bx := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(gx, 0))
	by := f.AddResource("y", ir.ResScalar, ir.GlobalLoc(gy, 0))
	b := f.NewBlock()
	b.Append(ir.NewInstr(ir.OpRet, ir.NoReg))
	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	if _, err := UpdateForClonedResources(f, dom, df, NewRefIndex(f),
		[]ir.ResourceID{bx.ID}, []ir.ResourceID{by.ID}); err == nil {
		t.Fatal("mixed-base update accepted, want error")
	}
}

// TestUpdateSweepsOnlyTheUpdatedBase updates the inner loop of a loop
// nest for base a, in a function where base b carries dead code of its
// own: a store and a memphi cycle nothing reads. The update's dead-
// definition sweep is restricted to a's references. It must still
// retire a's dead phi cycle, must keep a cloned a definition whose only
// reader is a memphi outside the updated family (the enclosing loop's
// header phi), and must leave every instruction of b untouched.
func TestUpdateSweepsOnlyTheUpdatedBase(t *testing.T) {
	p := ir.NewProgram()
	ga := p.AddGlobal("a", 1, false, nil)
	gb := p.AddGlobal("b", 1, false, nil)
	f := ir.NewFunction(p, "nest")
	a := f.AddResource("a", ir.ResScalar, ir.GlobalLoc(ga, 0)).ID
	b := f.AddResource("b", ir.ResScalar, ir.GlobalLoc(gb, 0)).ID
	cond := f.NewReg("c")
	f.Params = []ir.RegID{cond}

	// b0 -> b1 (outer header) -> b2 (inner header) -> b3 -> {b4, b5}
	// -> b6 (inner latch) -> b2; b2 -> b7 (outer latch) -> b1;
	// b1 -> b8 (exit).
	var blk []*ir.Block
	for i := 0; i < 9; i++ {
		blk = append(blk, f.NewBlock())
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 8}, {2, 3}, {2, 7}, {3, 4}, {3, 5}, {4, 6}, {5, 6}, {6, 2}, {7, 1}} {
		ir.AddEdge(blk[e[0]], blk[e[1]])
	}
	ver := func(base ir.ResourceID) ir.ResourceID { return f.NewVersion(base).ID }
	store := func(res ir.ResourceID, g *ir.Global) *ir.Instr {
		st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(1))
		st.Loc = ir.GlobalLoc(g, 0)
		st.MemDefs = []ir.MemRef{{Res: res}}
		return st
	}
	memphi := func(target ir.ResourceID, ops ...ir.ResourceID) *ir.Instr {
		phi := ir.NewInstr(ir.OpMemPhi, ir.NoReg)
		phi.MemDefs = []ir.MemRef{{Res: target}}
		for _, op := range ops {
			phi.MemUses = append(phi.MemUses, ir.MemRef{Res: op})
		}
		return phi
	}
	a1, a2, a3, a4, a5 := ver(a), ver(a), ver(a), ver(a), ver(a)
	b1, b2, b3 := ver(b), ver(b), ver(b)

	stA1, stB1 := store(a1, ga), store(b1, gb)
	blk[0].Append(stA1)
	blk[0].Append(stB1)
	blk[0].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	phiA2, phiB2 := memphi(a2, a1, a3), memphi(b2, b1, b3)
	blk[1].Append(phiA2)
	blk[1].Append(phiB2)
	blk[1].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	phiA3, phiB3 := memphi(a3, a2, a5), memphi(b3, b2, b3)
	blk[2].Append(phiA3)
	blk[2].Append(phiB3)
	blk[2].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	blk[3].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	stA4 := store(a4, ga)
	blk[4].Append(stA4)
	blk[4].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	blk[5].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	phiA5 := memphi(a5, a4, a3)
	blk[6].Append(phiA5)
	blk[6].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	blk[7].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	use := ir.NewInstr(ir.OpLoad, f.NewReg(""))
	use.Loc = ir.GlobalLoc(ga, 0)
	use.MemUses = []ir.MemRef{{Res: a2}}
	blk[8].Append(use)
	blk[8].Append(ir.NewInstr(ir.OpRet, ir.NoReg))
	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("loop nest invalid: %v\n%s", err, f)
	}

	// b's instructions as they stand before the update.
	type snapshot struct {
		in         *ir.Instr
		parent     *ir.Block
		defs, uses []ir.MemRef
	}
	var bInstrs []snapshot
	for _, in := range []*ir.Instr{stB1, phiB2, phiB3} {
		bInstrs = append(bInstrs, snapshot{in, in.Parent,
			append([]ir.MemRef(nil), in.MemDefs...), append([]ir.MemRef(nil), in.MemUses...)})
	}

	// Promoting a in the inner loop: its header phi, store and join phi
	// are the old versions; the clone is the store in the inner loop's
	// exit block, which only the outer header phi reads.
	clone := store(ver(a), ga)
	blk[7].InsertBefore(clone, blk[7].Term())
	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	if _, err := UpdateForClonedResources(f, dom, df, NewRefIndex(f),
		[]ir.ResourceID{a3, a4, a5}, []ir.ResourceID{clone.MemDefs[0].Res}); err != nil {
		t.Fatal(err)
	}

	for _, s := range bInstrs {
		if s.in.Parent != s.parent {
			t.Errorf("%v of b moved or deleted (in %v, was in %v)", s.in.Op, s.in.Parent, s.parent)
		}
		if !reflect.DeepEqual(s.in.MemDefs, s.defs) || !reflect.DeepEqual(s.in.MemUses, s.uses) {
			t.Errorf("%v of b rewritten: defs %v uses %v, was %v %v", s.in.Op, s.in.MemDefs, s.in.MemUses, s.defs, s.uses)
		}
	}
	for _, in := range []*ir.Instr{phiA3, phiA5, stA4} {
		if in.Parent != nil {
			t.Errorf("dead %v defining %s survived the sweep\n%s", in.Op, f.Res(in.MemDefs[0].Res), f)
		}
	}
	if clone.Parent == nil {
		t.Errorf("clone read only by the outer header phi was deleted\n%s", f)
	}
	if got := phiA2.MemUses[1].Res; got != clone.MemDefs[0].Res {
		t.Errorf("outer header phi reads %s from the outer latch, want the clone %s", f.Res(got), f.Res(clone.MemDefs[0].Res))
	}
	if stA1.Parent == nil || phiA2.Parent == nil {
		t.Error("live a definitions outside the updated family were deleted")
	}
	for _, b := range f.Blocks {
		for _, in := range b.Phis() {
			if in.Op == ir.OpMemPhi && in != phiA2 && in != phiB2 && in != phiB3 {
				t.Errorf("inserted memphi %s survived in %v", f.Res(in.MemDefs[0].Res), b)
			}
		}
	}
	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("post-update SSA invalid: %v\n%s", err, f)
	}
}

func TestUpdateRejectsUnindexedClone(t *testing.T) {
	fg := buildFigure9(t)
	refs := NewRefIndex(fg.f) // built before the clones are inserted
	fg.cloneStores(t)
	dom := cfg.BuildDomTree(fg.f)
	df := cfg.BuildDomFrontiers(dom)
	if _, err := UpdateForClonedResources(fg.f, dom, df, refs,
		[]ir.ResourceID{fg.v1}, []ir.ResourceID{fg.v2, fg.v3}); err == nil {
		t.Fatal("update accepted clones missing from the reference index, want error")
	}
}
