package opt

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/ssa"
)

func buildSSA(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := source.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			t.Fatal(err)
		}
		if _, err := ssa.Build(f); err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

func countOp(f *ir.Function, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestCopyPropagateChains(t *testing.T) {
	p := ir.NewProgram()
	f := ir.NewFunction(p, "cp")
	a := f.NewReg("a")
	b := f.NewReg("b")
	c := f.NewReg("c")
	blk := f.NewBlock()
	blk.Append(ir.NewInstr(ir.OpCopy, a, ir.ConstVal(5)))
	blk.Append(ir.NewInstr(ir.OpCopy, b, ir.RegVal(a)))
	blk.Append(ir.NewInstr(ir.OpCopy, c, ir.RegVal(b)))
	blk.Append(ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(c)))
	blk.Append(ir.NewInstr(ir.OpRet, ir.NoReg))

	n := CopyPropagate(f)
	if n != 3 {
		t.Fatalf("removed %d copies, want 3", n)
	}
	pr := blk.Instrs[0]
	if pr.Op != ir.OpPrint || !pr.Args[0].IsConst() || pr.Args[0].Const() != 5 {
		t.Fatalf("print arg not folded through chain: %v", pr)
	}
}

func TestDCERemovesDeadArithmeticAndLoads(t *testing.T) {
	prog := buildSSA(t, `
int g;
void main() {
	int dead = g + 41;
	print(7);
}`)
	main := prog.Func("main")
	if n := countOp(main, ir.OpLoad); n != 1 {
		t.Fatalf("precondition: want 1 load, have %d", n)
	}
	DCE(main)
	if n := countOp(main, ir.OpLoad); n != 0 {
		t.Errorf("dead load survived DCE")
	}
	if n := countOp(main, ir.OpAdd); n != 0 {
		t.Errorf("dead add survived DCE")
	}
	// The print must survive.
	if n := countOp(main, ir.OpPrint); n != 1 {
		t.Errorf("print removed by DCE")
	}
}

func TestDCEKeepsStoresAndCalls(t *testing.T) {
	prog := buildSSA(t, `
int g;
void touch() { g = 1; }
void main() {
	g = 42;
	touch();
}`)
	main := prog.Func("main")
	stores := countOp(main, ir.OpStore)
	calls := countOp(main, ir.OpCall)
	DCE(main)
	if countOp(main, ir.OpStore) != stores || countOp(main, ir.OpCall) != calls {
		t.Error("DCE removed a store or call")
	}
}

func TestDCEKeepsLiveMemPhis(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		// memOnly: no load reads x, so only the call's aliased
		// memory use keeps the loop's memphi for x alive.
		memOnly bool
	}{
		{name: "load", src: `
int x;
void main() {
	int i;
	for (i = 0; i < 10; i++) x++;
	print(x);
}`},
		{name: "call", memOnly: true, src: `
int x;
void touch() { print(x); }
void main() {
	int i;
	for (i = 0; i < 10; i++) x = i;
	touch();
}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			main := buildSSA(t, tc.src).Func("main")
			if countOp(main, ir.OpMemPhi) == 0 {
				t.Fatal("precondition: loop should have a memphi for x")
			}
			if tc.memOnly && countOp(main, ir.OpLoad) != 0 {
				t.Fatalf("precondition: main should load nothing:\n%s", main)
			}
			DCE(main)
			// The memphi feeds the loop's load of x, or the call's
			// memory use; it must survive.
			if countOp(main, ir.OpMemPhi) == 0 {
				t.Errorf("live memphi removed by DCE:\n%s", main)
			}
			if err := main.Verify(ir.VerifySSA); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDCERemovesDeadPhis(t *testing.T) {
	prog := buildSSA(t, `
int c;
void main() {
	int a = 0;
	if (c) { a = 1; } else { a = 2; }
	print(9);
}`)
	main := prog.Func("main")
	DCE(main)
	if n := countOp(main, ir.OpPhi); n != 0 {
		t.Errorf("dead phi survived: %d", n)
	}
}

func TestCleanupReachesFixpoint(t *testing.T) {
	// A copy feeding a dead add feeding nothing: needs copy-prop then
	// DCE, possibly repeatedly.
	prog := buildSSA(t, `
int g;
void main() {
	int a = g;
	int b = a;
	int c = b + 1;
	print(1);
}`)
	main := prog.Func("main")
	Cleanup(main)
	if n := countOp(main, ir.OpCopy) + countOp(main, ir.OpAdd) + countOp(main, ir.OpLoad); n != 0 {
		t.Errorf("Cleanup left %d dead instructions:\n%s", n, main)
	}
	if err := main.Verify(ir.VerifySSA); err != nil {
		t.Fatal(err)
	}
}

func TestDCEInterleavedDeadAndLive(t *testing.T) {
	// One block alternating dead arithmetic with live prints: DCE must
	// drop every dead instruction and keep the live ones in order.
	p := ir.NewProgram()
	f := ir.NewFunction(p, "mix")
	blk := f.NewBlock()
	var dead, live []*ir.Instr
	for i := 0; i < 50; i++ {
		d := blk.Append(ir.NewInstr(ir.OpAdd, f.NewReg("d"), ir.ConstVal(int64(i)), ir.ConstVal(1)))
		v := f.NewReg("v")
		def := blk.Append(ir.NewInstr(ir.OpMul, v, ir.ConstVal(int64(i)), ir.ConstVal(2)))
		pr := blk.Append(ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(v)))
		dead = append(dead, d)
		live = append(live, def, pr)
	}
	live = append(live, blk.Append(ir.NewInstr(ir.OpRet, ir.NoReg)))

	if n := DCE(f); n != len(dead) {
		t.Fatalf("DCE removed %d instructions, want %d", n, len(dead))
	}
	if len(blk.Instrs) != len(live) {
		t.Fatalf("block keeps %d instructions, want %d", len(blk.Instrs), len(live))
	}
	for i, in := range blk.Instrs {
		if in != live[i] {
			t.Fatalf("instruction %d is %v, want %v", i, in, live[i])
		}
	}
	for _, in := range dead {
		if in.Parent != nil {
			t.Fatalf("removed %v still has a parent block", in)
		}
	}
}

func TestCleanupSeesNamesCreatedAfterSSA(t *testing.T) {
	// Promotion allocates registers and resource versions after SSA
	// construction; the cleanup tables must cover them.
	prog := buildSSA(t, `
int g;
void main() {
	print(g);
}`)
	main := prog.Func("main")
	entry := main.Entry()
	var gBase ir.ResourceID = ir.NoResource
	for _, r := range main.Resources {
		if r.IsBase() && r.Name == "g" {
			gBase = r.ID
		}
	}
	if gBase == ir.NoResource {
		t.Fatal("precondition: no resource for g")
	}

	// A store of a fresh version of g (live: stores are roots), a dead
	// load of that version into a fresh register, and a copy chain
	// through fresh registers into a print.
	ver := main.NewVersion(gBase)
	st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(3))
	st.Loc = ver.Loc
	st.MemDefs = []ir.MemRef{{Res: ver.ID}}
	entry.InsertBeforeTerm(st)
	ld := ir.NewInstr(ir.OpLoad, main.NewReg("dead"))
	ld.Loc = ver.Loc
	ld.MemUses = []ir.MemRef{{Res: ver.ID}}
	entry.InsertBeforeTerm(ld)
	a, b := main.NewReg("a"), main.NewReg("b")
	entry.InsertBeforeTerm(ir.NewInstr(ir.OpCopy, a, ir.ConstVal(7)))
	entry.InsertBeforeTerm(ir.NewInstr(ir.OpCopy, b, ir.RegVal(a)))
	pr := ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(b))
	entry.InsertBeforeTerm(pr)

	Cleanup(main)
	if st.Parent == nil {
		t.Error("store of a version created after SSA was removed")
	}
	if ld.Parent != nil {
		t.Error("dead load of a version created after SSA survived")
	}
	if n := countOp(main, ir.OpCopy); n != 0 {
		t.Errorf("%d copies through registers created after SSA survived", n)
	}
	if !pr.Args[0].IsConst() || pr.Args[0].Const() != 7 {
		t.Errorf("print argument %v, want the constant 7", pr.Args[0])
	}
	if err := main.Verify(ir.VerifySSA); err != nil {
		t.Fatal(err)
	}
}
