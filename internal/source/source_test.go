package source

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestLexAllBasics(t *testing.T) {
	toks, err := LexAll(`int x = 42; // comment
/* block */ if (x <= 10 && y != 0) x += 1;`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokKind{
		TokInt, TokIdent, TokAssign, TokNum, TokSemi,
		TokIf, TokLParen, TokIdent, TokLe, TokNum, TokAndAnd,
		TokIdent, TokNe, TokNum, TokRParen, TokIdent, TokPlusEq,
		TokNum, TokSemi, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[3].Num != 42 {
		t.Errorf("literal = %d, want 42", toks[3].Num)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"$", "/* unterminated", "@"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) succeeded, want error", src)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := LexAll("int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x at %v, want 2:3", toks[1].Pos)
	}
}

func TestParseStructAndGlobals(t *testing.T) {
	file, err := Parse(`
struct point { int x; int y; };
int g = -5;
int buf[100];
struct point p;
void main() {}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Structs) != 1 || file.Structs[0].Name != "point" || len(file.Structs[0].Fields) != 2 {
		t.Fatalf("structs = %+v", file.Structs)
	}
	if len(file.Globals) != 3 {
		t.Fatalf("globals = %d, want 3", len(file.Globals))
	}
	if file.Globals[0].Init[0] != -5 {
		t.Errorf("g init = %v, want -5", file.Globals[0].Init)
	}
	if file.Globals[1].Type.Kind != TypeArray || file.Globals[1].ArrayN != 100 {
		t.Errorf("buf = %+v", file.Globals[1])
	}
	if file.Globals[2].Type.Kind != TypeStruct {
		t.Errorf("p = %+v", file.Globals[2])
	}
}

func TestParsePrecedence(t *testing.T) {
	file, err := Parse(`void main() { int x = 1 + 2 * 3 == 7 && 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	decl := file.Funcs[0].Body.Stmts[0].(*DeclStmt)
	and, ok := decl.Init.(*BinExpr)
	if !ok || and.Op != "&&" {
		t.Fatalf("top = %T %v, want &&", decl.Init, and)
	}
	eq, ok := and.X.(*BinExpr)
	if !ok || eq.Op != "==" {
		t.Fatalf("lhs of && = %+v, want ==", and.X)
	}
	add, ok := eq.X.(*BinExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("lhs of == = %+v, want +", eq.X)
	}
	mul, ok := add.Y.(*BinExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("rhs of + = %+v, want *", add.Y)
	}
}

func TestParseControlFlow(t *testing.T) {
	file, err := Parse(`
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		if (i % 2 == 0) s += i; else s -= i;
		while (s > 100) { s /= 2; break; }
		do { s++; } while (s < 0);
		if (s == 13) continue;
	}
	return s;
}
void main() { f(10); }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(file.Funcs))
	}
	body := file.Funcs[0].Body
	if _, ok := body.Stmts[1].(*ForStmt); !ok {
		t.Fatalf("stmt 1 = %T, want *ForStmt", body.Stmts[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`int f( {}`,
		`void main() { int; }`,
		`void main() { x = ; }`,
		`void main() { if x {} }`,
		`void main( ) { return 1 }`, // missing semi
		`struct S { }; void main() {}`,
		`void x;`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			// struct with no fields parses; checker rejects. Skip those.
			if f, _ := Parse(src); f != nil {
				if _, cerr := Check(f); cerr == nil {
					t.Errorf("Parse+Check(%q) succeeded, want error", src)
				}
			}
		}
	}
}

func TestCheckCatchesErrors(t *testing.T) {
	cases := map[string]string{
		"undefined var":      `void main() { x = 1; }`,
		"undefined func":     `void main() { foo(); }`,
		"arg count":          `int f(int a) { return a; } void main() { f(); }`,
		"redefined global":   `int x; int x; void main() {}`,
		"redeclared local":   `void main() { int x; int x; }`,
		"break outside loop": `void main() { break; }`,
		"void returns value": `void main() { return 1; }`,
		"array no index":     `int a[5]; void main() { a = 1; }`,
		"index non-array":    `int x; void main() { x[0] = 1; }`,
		"struct no field":    `struct S {int a;}; struct S s; void main() { s = 1; }`,
		"bad field":          `struct S {int a;}; struct S s; void main() { s.b = 1; }`,
		"deref int":          `void main() { int x; x = *x; }`,
		"addr of param":      `void f(int a) { int* p; p = &a; } void main() {}`,
		"addr of array elem": `int a[5]; void main() { int* p; p = &a[0]; }`,
		"no main":            `int f() { return 0; }`,
		"ptr arith":          `int x; void main() { int* p = &x; x = p + 1; }`,
		"print two args":     `void main() { print(1, 2); }`,
	}
	for name, src := range cases {
		file, err := Parse(src)
		if err != nil {
			continue // parse error also acceptable for these
		}
		if _, err := Check(file); err == nil {
			t.Errorf("%s: Check(%q) succeeded, want error", name, src)
		}
	}
}

func TestCheckMarksAddrTaken(t *testing.T) {
	file, err := Parse(`
int g;
int h;
void main() {
	int a;
	int b;
	int* p;
	p = &a;
	p = &g;
	b = *p;
	print(b);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(file); err != nil {
		t.Fatal(err)
	}
	if !file.Globals[0].AddrTaken {
		t.Error("g should be address-taken")
	}
	if file.Globals[1].AddrTaken {
		t.Error("h should not be address-taken")
	}
	var aDecl, bDecl *DeclStmt
	for _, st := range file.Funcs[0].Body.Stmts {
		d, ok := st.(*DeclStmt)
		if !ok {
			continue
		}
		switch d.Name {
		case "a":
			aDecl = d
		case "b":
			bDecl = d
		}
	}
	if aDecl == nil || !aDecl.AddrTaken {
		t.Error("local a should be address-taken")
	}
	if bDecl == nil || bDecl.AddrTaken {
		t.Error("local b should not be address-taken")
	}
}

func mustCompile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, f := range prog.Funcs {
		if err := f.Verify(ir.VerifyCFG); err != nil {
			t.Fatalf("Verify(%s): %v", f.Name, err)
		}
	}
	return prog
}

func TestLowerGlobalAccessesUseLoadStore(t *testing.T) {
	prog := mustCompile(t, `
int x;
void main() {
	x = 1;
	x = x + 2;
}
`)
	main := prog.Func("main")
	loads, stores := 0, 0
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				loads++
			case ir.OpStore:
				stores++
			}
		}
	}
	if loads != 1 || stores != 2 {
		t.Errorf("loads=%d stores=%d, want 1 and 2\n%s", loads, stores, main)
	}
}

func TestLowerRegisterLocalsAvoidMemory(t *testing.T) {
	prog := mustCompile(t, `
void main() {
	int a = 1;
	int b = a + 2;
	print(b);
}
`)
	main := prog.Func("main")
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				t.Fatalf("register locals produced memory op: %v", in)
			}
		}
	}
	if len(main.Slots) != 0 {
		t.Errorf("slots = %v, want none", main.Slots)
	}
}

func TestLowerAddrTakenLocalUsesSlot(t *testing.T) {
	prog := mustCompile(t, `
void main() {
	int a = 5;
	int* p = &a;
	*p = 7;
	print(a);
}
`)
	main := prog.Func("main")
	if len(main.Slots) != 1 || main.Slots[0].Name != "a" {
		t.Fatalf("slots = %+v, want [a]", main.Slots)
	}
	var hasStorePtr, hasAddr bool
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStorePtr {
				hasStorePtr = true
			}
			if in.Op == ir.OpAddr {
				hasAddr = true
			}
		}
	}
	if !hasStorePtr || !hasAddr {
		t.Errorf("storeptr=%v addr=%v, want both", hasStorePtr, hasAddr)
	}
}

func TestLowerStructFieldsAreDirectCells(t *testing.T) {
	prog := mustCompile(t, `
struct pair { int a; int b; };
struct pair g;
void main() {
	g.a = 1;
	g.b = g.a + 1;
	print(g.b);
}
`)
	main := prog.Func("main")
	offsets := map[int]bool{}
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore {
				offsets[in.Loc.Offset] = true
			}
		}
	}
	if !offsets[0] || !offsets[1] {
		t.Errorf("store offsets = %v, want cells 0 and 1", offsets)
	}
}

func TestLowerArrayUsesIdxOps(t *testing.T) {
	prog := mustCompile(t, `
int a[10];
void main() {
	int i;
	for (i = 0; i < 10; i++) a[i] = i;
	print(a[3]);
}
`)
	main := prog.Func("main")
	var hasLoadIdx, hasStoreIdx bool
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoadIdx {
				hasLoadIdx = true
			}
			if in.Op == ir.OpStoreIdx {
				hasStoreIdx = true
			}
		}
	}
	if !hasLoadIdx || !hasStoreIdx {
		t.Errorf("loadidx=%v storeidx=%v, want both", hasLoadIdx, hasStoreIdx)
	}
}

func TestLowerLoopShape(t *testing.T) {
	prog := mustCompile(t, `
int x;
void main() {
	int i;
	for (i = 0; i < 100; i++) x++;
}
`)
	main := prog.Func("main")
	// There must be a back edge (a loop).
	hasBack := false
	seen := map[*ir.Block]int{}
	order := 0
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = order
		order++
		for _, s := range b.Succs {
			if _, ok := seen[s]; !ok {
				dfs(s)
			} else {
				hasBack = true
			}
		}
	}
	dfs(main.Entry())
	if !hasBack {
		t.Errorf("no back edge in lowered loop:\n%s", main)
	}
}

func TestLowerShortCircuit(t *testing.T) {
	prog := mustCompile(t, `
int calls;
int check(int v) { calls++; return v; }
void main() {
	int r = check(0) && check(1);
	print(r);
	r = check(1) || check(2);
	print(r);
}
`)
	main := prog.Func("main")
	// Short-circuit forms must produce branches, not plain OpAnd/OpOr.
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAnd || in.Op == ir.OpOr {
				t.Errorf("&&/|| lowered to bitwise %v", in.Op)
			}
		}
	}
	brs := 0
	for _, b := range main.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpBr {
			brs++
		}
	}
	if brs < 2 {
		t.Errorf("expected at least 2 branches for short-circuit, got %d", brs)
	}
}

func TestLowerCompoundAssignEvaluatesIndexOnce(t *testing.T) {
	prog := mustCompile(t, `
int a[10];
int idx() { return 3; }
void main() {
	a[idx()] += 5;
}
`)
	main := prog.Func("main")
	calls := 0
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls++
			}
		}
	}
	if calls != 1 {
		t.Errorf("index expression evaluated %d times, want 1", calls)
	}
}

func TestLowerReturnPaths(t *testing.T) {
	prog := mustCompile(t, `
int f(int c) {
	if (c) return 1;
	return 2;
}
void main() { print(f(1)); }
`)
	f := prog.Func("f")
	rets := 0
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpRet {
			rets++
		}
	}
	if rets < 2 {
		t.Errorf("rets = %d, want >= 2", rets)
	}
}

func TestCompileFigure1Program(t *testing.T) {
	// The paper's running example (Figure 1).
	prog := mustCompile(t, `
int x;
void foo() { x = x + 1; }
void main() {
	int i;
	for (i = 0; i < 100; i++) x++;
	for (i = 0; i < 10; i++) foo();
}
`)
	if prog.Func("foo") == nil || prog.Func("main") == nil {
		t.Fatal("missing functions")
	}
	if strings.Contains(prog.String(), "op?") {
		t.Error("printer produced unknown opcodes")
	}
}
