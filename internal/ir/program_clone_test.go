package ir_test

import (
	"reflect"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/ssa"
)

// cloneProgSrc has one of every object Program.Clone must copy: scalar,
// array and struct globals, address-taken locals,
// local arrays, pointers, calls, and hot loops for promotion to rewrite.
const cloneProgSrc = `
int total;
int hist[8];
struct pair { int a; int b; };
struct pair pr;
int bump(int *p, int k) { *p = *p + k; return *p; }
void fill() {
	int i;
	for (i = 0; i < 8; i++) hist[i] = i * total;
}
void main() {
	int i;
	int loc;
	int buf[4];
	total = 3;
	loc = 1;
	for (i = 0; i < 50; i++) {
		total = total + i;
		pr.a = pr.a + 2;
		buf[i % 4] = bump(&loc, i);
	}
	fill();
	pr.b = buf[3];
	print(total);
	print(loc);
	print(pr.a + pr.b);
}
`

// frontendProgram compiles, alias-analyzes and normalizes src, the
// state the pipeline clones.
func frontendProgram(t *testing.T) (*ir.Program, map[string]*cfg.Forest) {
	t.Helper()
	prog, err := source.Compile(cloneProgSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	forests := make(map[string]*cfg.Forest)
	for _, f := range prog.Funcs {
		fo, err := cfg.Normalize(f)
		if err != nil {
			t.Fatal(err)
		}
		forests[f.Name] = fo
	}
	return prog, forests
}

func programText(t *testing.T, p *ir.Program) string {
	t.Helper()
	s, err := ir.ProgramText(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// objects collects every mutable object a program owns.
func objects(p *ir.Program) map[any]bool {
	seen := make(map[any]bool)
	for _, g := range p.Globals {
		seen[g] = true
	}
	for _, f := range p.Funcs {
		seen[f] = true
		for _, s := range f.Slots {
			seen[s] = true
		}
		for _, r := range f.Resources {
			seen[r] = true
		}
		for _, b := range f.Blocks {
			seen[b] = true
			for _, in := range b.Instrs {
				seen[in] = true
				if in.Loc.Global != nil {
					seen[in.Loc.Global] = true
				}
			}
		}
		for _, r := range f.Resources {
			if r.Loc.Global != nil {
				seen[r.Loc.Global] = true
			}
		}
	}
	return seen
}

func TestProgramCloneIsIndependent(t *testing.T) {
	prog, forests := frontendProgram(t)
	origStr, origText := prog.String(), programText(t, prog)
	train, err := interp.Run(prog, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}

	c := prog.Clone()
	if got := programText(t, c); got != origText {
		t.Fatalf("fresh clone writes different text:\n--- original\n%s\n--- clone\n%s", origText, got)
	}
	if c.String() != origStr {
		t.Fatal("fresh clone prints differently")
	}
	orig := objects(prog)
	for o := range objects(c) {
		if orig[o] {
			t.Fatalf("clone shares %T %p with the original", o, o)
		}
	}
	for i, f := range c.Funcs {
		if f.Prog != c || c.Func(f.Name) != f || c.FuncIndex(f.Name) != i {
			t.Fatalf("clone function %s is not registered in the clone", f.Name)
		}
	}

	// Promote and destruct every function of the clone, as the pipeline
	// does, with forests remapped onto the clone's blocks.
	promoted := 0
	for _, f := range c.Funcs {
		if _, err := ssa.Build(f); err != nil {
			t.Fatalf("%s: ssa: %v", f.Name, err)
		}
		st, err := core.PromoteFunction(f, forests[f.Name].CloneFor(f), core.Config{
			Profile:         train.Profile.ForFunc(f.Name),
			CountTailStores: true,
		})
		if err != nil {
			t.Fatalf("%s: promote: %v", f.Name, err)
		}
		promoted += st.WebsPromoted
		ssa.Destruct(f)
		if err := f.Verify(ir.VerifyCFG); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
	if promoted == 0 || c.String() == origStr {
		t.Fatal("promotion left the clone unchanged; the test proves nothing")
	}

	if prog.String() != origStr || programText(t, prog) != origText {
		t.Fatal("promoting the clone changed the original")
	}
	again, err := interp.Run(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Output, train.Output) || again.ReturnValue != train.ReturnValue ||
		!reflect.DeepEqual(again.Globals, train.Globals) || !reflect.DeepEqual(again.OpCounts, train.OpCounts) ||
		again.Steps != train.Steps {
		t.Fatal("the original runs differently after the clone was promoted")
	}
	after, err := interp.Run(c, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Output, train.Output) || !reflect.DeepEqual(after.Globals, train.Globals) {
		t.Fatalf("promoted clone changed observables: %v vs %v", after.Output, train.Output)
	}
	if after.DynMemOps() >= train.DynMemOps() {
		t.Errorf("promotion removed no dynamic memory ops: %d -> %d", train.DynMemOps(), after.DynMemOps())
	}
}
