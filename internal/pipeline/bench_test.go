package pipeline_test

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// BenchmarkRunLargeStatic measures one pipeline.Run over gen0043 of the
// large corpus (seed 7), the gen-large-static program with the most
// instructions, in that workload's mode: static profile, no
// measurement, default worker count.
func BenchmarkRunLargeStatic(b *testing.B) {
	w, err := workload.SizedCorpusEntry(7, 43, "large")
	if err != nil {
		b.Fatal(err)
	}
	opts := pipeline.Options{Lang: w.Lang, StaticProfile: true, SkipMeasurement: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(w.Src, opts); err != nil {
			b.Fatal(err)
		}
	}
}
