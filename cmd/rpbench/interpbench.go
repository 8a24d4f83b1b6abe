package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/report"
	"repro/internal/source"
)

// interpBenchSrc is the call-heavy program from the interp package's
// microbenchmarks: many short activations dominated by frame setup,
// argument passing, and call/return dispatch — the costs the bytecode
// path attacks.
const interpBenchSrc = `
int depth;
int leaf(int a, int b) {
	int t[4];
	t[0] = a; t[1] = b; t[2] = a + b; t[3] = a - b;
	return t[0] + t[1] * t[2] - t[3];
}
int mid(int n) {
	int acc;
	int i;
	for (i = 0; i < 8; i++) {
		acc = acc + leaf(i, n);
	}
	return acc;
}
void main() {
	int i;
	int sum;
	for (i = 0; i < 2000; i++) {
		sum = sum + mid(i);
	}
	print(sum);
}`

// pathSample is one execution path's measured steady state.
type pathSample struct {
	NsPerRun     float64 `json:"ns_per_run"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"alloc_bytes_per_run"`
}

// interpBenchRecord is the JSON shape written by -interp-bench: the
// three execution paths on the same call-heavy program, plus the two
// ratios the optimization work is judged by.
type interpBenchRecord struct {
	SchemaVersion     int        `json:"schema_version"`
	Iters             int        `json:"iters"`
	Legacy            pathSample `json:"legacy"`
	Fast              pathSample `json:"fastpath"`
	Bytecode          pathSample `json:"bytecode"`
	SpeedupVsFastpath float64    `json:"speedup_vs_fastpath"`
	SpeedupVsLegacy   float64    `json:"speedup_vs_legacy"`
}

// measurePath runs the call-heavy program iters times under opts and
// returns the steady-state per-run cost. One untimed warmup run absorbs
// one-time costs (bytecode compilation lands in the shared code cache).
func measurePath(iters int, opts interp.Options) (pathSample, error) {
	prog, err := source.Compile(interpBenchSrc)
	if err != nil {
		return pathSample{}, err
	}
	if err := alias.Analyze(prog); err != nil {
		return pathSample{}, err
	}
	opts.CollectProfile = true
	if _, err := interp.Run(prog, opts); err != nil {
		return pathSample{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := interp.Run(prog, opts); err != nil {
			return pathSample{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return pathSample{
		NsPerRun:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerRun: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerRun:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

// runInterpBench measures the legacy, fast, and bytecode interpreter
// paths on the call-heavy program and writes the comparison record.
func runInterpBench(iters int, jsonPath string) error {
	legacy, err := measurePath(iters, interp.Options{Legacy: true})
	if err != nil {
		return err
	}
	fast, err := measurePath(iters, interp.Options{Walker: true})
	if err != nil {
		return err
	}
	// The bytecode path shares one external code cache across runs, the
	// deployment shape: compilation is paid once, every run after that
	// is pure dispatch.
	bc, err := measurePath(iters, interp.Options{Code: analysis.New()})
	if err != nil {
		return err
	}

	rec := interpBenchRecord{
		SchemaVersion:     report.SchemaVersion,
		Iters:             iters,
		Legacy:            legacy,
		Fast:              fast,
		Bytecode:          bc,
		SpeedupVsFastpath: fast.NsPerRun / bc.NsPerRun,
		SpeedupVsLegacy:   legacy.NsPerRun / bc.NsPerRun,
	}
	fmt.Printf("interp-bench: call-heavy program, %d timed runs per path\n", iters)
	fmt.Printf("%-9s %12.0f ns/run %10.0f allocs/run %12.0f B/run\n", "legacy", legacy.NsPerRun, legacy.AllocsPerRun, legacy.BytesPerRun)
	fmt.Printf("%-9s %12.0f ns/run %10.0f allocs/run %12.0f B/run\n", "fastpath", fast.NsPerRun, fast.AllocsPerRun, fast.BytesPerRun)
	fmt.Printf("%-9s %12.0f ns/run %10.0f allocs/run %12.0f B/run\n", "bytecode", bc.NsPerRun, bc.AllocsPerRun, bc.BytesPerRun)
	fmt.Printf("bytecode speedup: %.2fx vs fastpath, %.2fx vs legacy\n", rec.SpeedupVsFastpath, rec.SpeedupVsLegacy)

	if jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}
