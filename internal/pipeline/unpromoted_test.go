package pipeline

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/workload"
)

// TestUnpromotedMatchesFrontend checks the premise of rollback by
// recompiling: for every function, the copy a rollback installs —
// compiled again, alias-analyzed, adopted into the run's program and
// normalized — prints identically to the function the frontend
// normalized, carries the same CFG version, register count and block
// ID bound, and refers only to the run's own globals. It covers the
// suite and imported-suite programs and the 64 programs of the large
// generated corpus (seed 7).
func TestUnpromotedMatchesFrontend(t *testing.T) {
	progs := append(workload.Suite(), workload.ImportedSuite()...)
	for i := 0; i < 64; i++ {
		w, err := workload.SizedCorpusEntry(7, i, "large")
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w)
	}
	for _, w := range progs {
		r := &runner{opts: Options{Lang: w.Lang}, out: &Outcome{}, src: w.Src, degraded: map[string]bool{}}
		prog, _, err := r.frontend(w.Src)
		if err != nil {
			t.Fatalf("%s: frontend: %v", w.Name, err)
		}
		own := make(map[*ir.Global]bool, len(prog.Globals))
		for _, g := range prog.Globals {
			own[g] = true
		}
		for _, f := range prog.Funcs {
			g, err := r.unpromoted(prog, f.Name, true)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, f.Name, err)
			}
			if got, want := g.String(), f.String(); got != want {
				t.Fatalf("%s/%s: rolled-back IR differs from the frontend's:\n%s\nwant:\n%s", w.Name, f.Name, got, want)
			}
			if g.CFGVersion() != f.CFGVersion() || g.NumRegs != f.NumRegs || g.BlockIDBound() != f.BlockIDBound() {
				t.Errorf("%s/%s: version/regs/block bound %d/%d/%d, frontend %d/%d/%d", w.Name, f.Name,
					g.CFGVersion(), g.NumRegs, g.BlockIDBound(), f.CFGVersion(), f.NumRegs, f.BlockIDBound())
			}
			if g.Prog != prog {
				t.Errorf("%s/%s: adopted function belongs to another program", w.Name, f.Name)
			}
			foreign := func(l ir.MemLoc) bool { return l.Kind == ir.LocGlobal && !own[l.Global] }
			for _, res := range g.Resources {
				if foreign(res.Loc) {
					t.Errorf("%s/%s: resource %v names a global of another program", w.Name, f.Name, res.Loc)
				}
			}
			for _, b := range g.Blocks {
				for _, in := range b.Instrs {
					if foreign(in.Loc) {
						t.Errorf("%s/%s: %v names a global of another program", w.Name, f.Name, in)
					}
				}
			}
		}
	}
}
