package core

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/ssa"
)

// prep compiles to SSA and returns a promoter ready for white-box
// inspection of web construction and planning. The profile is measured
// by a training run on the normalized pre-SSA program, matching the
// real pipeline (the static estimator cannot see cold branches).
func prep(t *testing.T, src string) (*promoter, *cfg.Forest) {
	t.Helper()
	prog, err := source.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	var forests []*cfg.Forest
	for _, fn := range prog.Funcs {
		forest, err := cfg.Normalize(fn)
		if err != nil {
			t.Fatal(err)
		}
		if fn.Name == "main" {
			forests = append(forests, forest)
		}
	}
	res, err := interp.Run(prog, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	forest := forests[0]
	if _, err := ssa.Build(f); err != nil {
		t.Fatal(err)
	}
	p := newPromoter(f, forest, Config{Profile: res.Profile.ForFunc("main"), CountTailStores: true})
	return p, forest
}

// websOfBase filters webs in the interval to one base name.
func websOfBase(p *promoter, iv *cfg.Interval, name string) []*web {
	var out []*web
	for _, w := range p.constructSSAWebs(iv) {
		if p.f.Res(w.base).Name == name {
			out = append(out, w)
		}
	}
	return out
}

// TestWebsSplitAtCalls reproduces the paper's section 4.2 example: in
// straight-line code `x = ..; foo(); bar();` the versions of x form
// three separate webs, each an independent promotion unit.
func TestWebsSplitAtCalls(t *testing.T) {
	p, forest := prep(t, `
int x;
int sink;
void foo() { sink += x; }
void bar() { sink *= x; }
void main() {
	x = 1;
	foo();
	bar();
}
`)
	webs := websOfBase(p, forest.Root, "x")
	if len(webs) < 3 {
		t.Fatalf("straight-line call-split produced %d webs, want >= 3", len(webs))
	}
	// No phis anywhere, so every web is a singleton class.
	for _, w := range webs {
		if len(w.memPhis) != 0 {
			t.Errorf("web has phis in phi-free code")
		}
		if len(w.resources) != 1 {
			t.Errorf("web spans %d versions without phis", len(w.resources))
		}
	}
}

// TestWebsJoinThroughPhis: inside a loop, the header phi unions the
// live-in version, the store version, and itself into one web.
func TestWebsJoinThroughPhis(t *testing.T) {
	p, forest := prep(t, `
int x;
void main() {
	int i;
	for (i = 0; i < 10; i++) x++;
	print(x);
}
`)
	var loop *cfg.Interval
	forest.Root.Walk(func(iv *cfg.Interval) {
		if !iv.Root {
			loop = iv
		}
	})
	webs := websOfBase(p, loop, "x")
	if len(webs) != 1 {
		t.Fatalf("loop produced %d webs for x, want 1", len(webs))
	}
	w := webs[0]
	if len(w.memPhis) != 1 {
		t.Errorf("web has %d phis, want the header phi", len(w.memPhis))
	}
	if len(w.loads) != 1 || len(w.stores) != 1 {
		t.Errorf("web refs: %d loads, %d stores; want 1 and 1", len(w.loads), len(w.stores))
	}
	// resources: live-in, phi target, store version.
	if len(w.resources) != 3 {
		t.Errorf("web spans %d versions, want 3", len(w.resources))
	}
}

// TestPlanLoadsAddedLeaves: the plan places a load exactly at each
// non-store leaf of the web's phi structure.
func TestPlanLoadsAddedLeaves(t *testing.T) {
	p, forest := prep(t, `
int x;
int sink;
void foo() { sink += x; }
void main() {
	int i;
	for (i = 0; i < 100; i++) {
		x++;
		if (x == 500) foo();
	}
	print(x);
}
`)
	var loop *cfg.Interval
	forest.Root.Walk(func(iv *cfg.Interval) {
		if !iv.Root && loop == nil {
			loop = iv
		}
	})
	webs := websOfBase(p, loop, "x")
	if len(webs) != 1 {
		t.Fatalf("webs = %d, want 1", len(webs))
	}
	plan := p.planWeb(loop, webs[0])

	// Leaves: the live-in version (load in the preheader) and the
	// call-defined version (reload on the call path).
	if len(plan.loadsAdded) != 2 {
		t.Fatalf("loads-added = %d sites, want 2", len(plan.loadsAdded))
	}
	sawPreheader, sawCallPath := false, false
	for _, ref := range plan.loadsAdded {
		res := p.f.Res(ref.res)
		if res.Version == 0 {
			sawPreheader = true
			if ref.at.Parent != loop.Preheader {
				t.Errorf("live-in load placed in %v, want preheader %v", ref.at.Parent, loop.Preheader)
			}
		} else {
			sawCallPath = true
		}
	}
	if !sawPreheader || !sawCallPath {
		t.Errorf("leaf classification wrong: preheader=%v callpath=%v", sawPreheader, sawCallPath)
	}

	// The store feeds the call path: one compensation store planned
	// (plus none at the hot back edge beyond it).
	if len(plan.storesAdded) == 0 {
		t.Error("no stores-added despite an aliased load in the web")
	}
	// Tail store for the live-out value.
	if len(plan.tailStores) != 1 {
		t.Errorf("tail stores = %d, want 1", len(plan.tailStores))
	}
	if !plan.removeStores {
		t.Error("cold call path: store removal should be profitable")
	}
}

// TestPlanLiveInDetection: the unique live-in version is the one
// defined outside the interval.
func TestPlanLiveIn(t *testing.T) {
	p, forest := prep(t, `
int x;
void main() {
	x = 41;
	int i;
	for (i = 0; i < 10; i++) x++;
	print(x);
}
`)
	var loop *cfg.Interval
	forest.Root.Walk(func(iv *cfg.Interval) {
		if !iv.Root {
			loop = iv
		}
	})
	webs := websOfBase(p, loop, "x")
	plan := p.planWeb(loop, webs[0])
	if plan.liveIn == ir.NoResource {
		t.Fatal("no live-in found")
	}
	res := p.f.Res(plan.liveIn)
	// The live-in is the version the pre-loop store defined — defined
	// outside the loop, used inside via the header phi.
	if def := webs[0].defsInInterval[plan.liveIn]; def != nil {
		t.Errorf("live-in %s is defined inside the interval", res)
	}
}

// TestPruneDominatedStores: a store insertion point dominated by
// another for the same resource is dropped.
func TestPruneDominatedStores(t *testing.T) {
	p, _ := prep(t, `
int x;
void main() {
	x = 1;
	print(x);
}
`)
	f := p.f
	// Fabricate two insertion points in the same block: the earlier
	// dominates the later.
	entry := f.Entry()
	first := entry.Instrs[0]
	last := entry.Term()
	refs := []plannedRef{
		{res: 1, at: last},
		{res: 1, at: first},
		{res: 2, at: last}, // different resource: kept
	}
	kept := p.pruneDominatedStores(refs)
	if len(kept) != 2 {
		t.Fatalf("kept %d refs, want 2: %+v", len(kept), kept)
	}
	for _, r := range kept {
		if r.res == 1 && r.at != first {
			t.Error("kept the dominated insertion point")
		}
	}
}

// TestWebsDeterministic: web construction yields the same order across
// runs (maps must not leak iteration order).
func TestWebsDeterministic(t *testing.T) {
	src := `
int a; int b; int c;
void main() {
	int i;
	for (i = 0; i < 10; i++) { a++; b += a; c = c ^ b; }
	print(a + b + c);
}
`
	shape := func() []string {
		p, forest := prep(t, src)
		var loop *cfg.Interval
		forest.Root.Walk(func(iv *cfg.Interval) {
			if !iv.Root {
				loop = iv
			}
		})
		var names []string
		for _, w := range p.constructSSAWebs(loop) {
			names = append(names, p.f.Res(w.base).Name)
		}
		return names
	}
	a := shape()
	for try := 0; try < 5; try++ {
		b := shape()
		if len(a) != len(b) {
			t.Fatalf("web count varies: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("web order varies: %v vs %v", a, b)
			}
		}
	}
}
