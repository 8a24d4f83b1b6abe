package opt_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// BenchmarkCleanup measures the post-promotion sweep over gen0043 of
// the large corpus (seed 7), the largest program of the gen-large-static
// workload: every function is promoted with its static profile and the
// residue kept, then each iteration cleans fresh clones of the result
// (cloned with the timer stopped).
func BenchmarkCleanup(b *testing.B) {
	w, err := workload.SizedCorpusEntry(7, 43, "large")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := source.Compile(w.Src)
	if err != nil {
		b.Fatal(err)
	}
	if err := alias.Analyze(prog); err != nil {
		b.Fatal(err)
	}
	for _, f := range prog.Funcs {
		forest, err := cfg.Normalize(f)
		if err != nil {
			b.Fatal(err)
		}
		fp := profile.Estimate(f, forest)
		if _, err := ssa.Build(f); err != nil {
			b.Fatal(err)
		}
		if _, err := core.PromoteFunction(f, forest, core.Config{
			Profile:            fp,
			CountTailStores:    true,
			KeepCleanupResidue: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
	clones := make([]*ir.Function, len(prog.Funcs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, f := range prog.Funcs {
			clones[j] = f.Clone()
		}
		b.StartTimer()
		for _, f := range clones {
			opt.Cleanup(f)
		}
	}
}
