package source_test

import (
	"testing"

	"repro/internal/source"
	"repro/internal/workload"
)

// BenchmarkCompile runs the frontend (parse, check, lower) over the 64
// programs of the large generated corpus (seed 7), the inputs of the
// gen-large-static workload; one iteration compiles all 64. Run with
// -benchmem: B/op and allocs/op are the frontend's allocation cost.
func BenchmarkCompile(b *testing.B) {
	srcs := make([]string, 64)
	for i := range srcs {
		w, err := workload.SizedCorpusEntry(7, i, "large")
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = w.Src
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := source.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
