package core_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// benchProgram compiles gen0048 of the large corpus (seed 7), one of
// the largest programs the gen-large-static workload promotes, and
// returns its functions in SSA form with their static profiles.
func benchProgram(b *testing.B) ([]*ir.Function, *profile.Profile) {
	b.Helper()
	w, err := workload.SizedCorpusEntry(7, 48, "large")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := source.Compile(w.Src)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	if err := alias.Analyze(prog); err != nil {
		b.Fatalf("Analyze: %v", err)
	}
	prof := profile.NewProfile()
	for _, f := range prog.Funcs {
		forest, err := cfg.Normalize(f)
		if err != nil {
			b.Fatalf("Normalize(%s): %v", f.Name, err)
		}
		prof.Funcs[f.Name] = profile.Estimate(f, forest)
		cfg.RemoveUnreachable(f)
		if _, err := ssa.Build(f); err != nil {
			b.Fatalf("Build(%s): %v", f.Name, err)
		}
	}
	return prog.Funcs, prof
}

// BenchmarkPromoteFunction measures interval-scoped promotion of a whole
// large program with the options the pipeline uses. Promotion mutates
// its function, so each iteration promotes fresh clones; cloning and
// the clones' interval forests are built with the timer stopped.
func BenchmarkPromoteFunction(b *testing.B) {
	funcs, prof := benchProgram(b)
	clones := make([]*ir.Function, len(funcs))
	forests := make([]*cfg.Forest, len(funcs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, f := range funcs {
			clones[j] = f.Clone()
			forests[j] = cfg.AnnotatedIntervals(clones[j])
		}
		b.StartTimer()
		for j, f := range clones {
			_, err := core.PromoteFunction(f, forests[j], core.Config{
				Profile:         prof.ForFunc(f.Name),
				CountTailStores: true,
			})
			if err != nil {
				b.Fatalf("PromoteFunction(%s): %v", f.Name, err)
			}
		}
	}
}
