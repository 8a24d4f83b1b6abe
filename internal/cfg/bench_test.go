package cfg_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/workload"
)

// benchFunc compiles a large generated program and returns its biggest
// function, normalized, as a representative CFG for the analyses.
func benchFunc(b *testing.B) *ir.Function {
	b.Helper()
	gen, err := workload.SizedGenConfig(11, "large")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := source.Compile(workload.Generate(gen))
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	if err := alias.Analyze(prog); err != nil {
		b.Fatalf("Analyze: %v", err)
	}
	var best *ir.Function
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			b.Fatalf("Normalize(%s): %v", f.Name, err)
		}
		if best == nil || len(f.Blocks) > len(best.Blocks) {
			best = f
		}
	}
	return best
}

func BenchmarkBuildDomTree(b *testing.B) {
	f := benchFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.BuildDomTree(f)
	}
}

func BenchmarkBuildDomFrontiers(b *testing.B) {
	f := benchFunc(b)
	dom := cfg.BuildDomTree(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.BuildDomFrontiers(dom)
	}
}

func BenchmarkIteratedDF(b *testing.B) {
	f := benchFunc(b)
	df := cfg.BuildDomFrontiers(cfg.BuildDomTree(f))
	// Every third block defines, a typical density for a promoted web.
	var defs []*ir.Block
	for i, blk := range f.Blocks {
		if i%3 == 0 {
			defs = append(defs, blk)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.IteratedDF(df, defs)
	}
}

func BenchmarkBuildIntervals(b *testing.B) {
	f := benchFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.BuildIntervals(f)
	}
}

// BenchmarkAnnotatedIntervals rebuilds the Preheader-annotated forest
// of a normalized function's clone, as pressure-aware promotion does
// for each trial.
func BenchmarkAnnotatedIntervals(b *testing.B) {
	f := benchFunc(b)
	c := f.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.AnnotatedIntervals(c)
	}
}
