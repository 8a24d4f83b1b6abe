package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json at the
// repository root lists the same names (TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the promoter or its serving tier
// sees, printed with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"dyn_memops_after", "count", "lower"},
	{"dyn_steps_after", "count", "lower"},
	{"static_memops_after", "count", "lower"},
	{"colors_after", "count", "lower"},
}

// perLayer are the traced run's metrics, named after the modules whose
// public functions the benchmark times. Times are milliseconds per
// program run through the pipeline unless the name says otherwise.
var perLayer = []metricDef{
	{"interp.train_ms", "ms", "lower"},
	{"interp.measure_ms", "ms", "lower"},
	{"interp.runs", "count", "lower"},
	{"interp.steps", "count", "lower"},
	{"interp.ns_per_step", "ns", "lower"},
	{"pipeline.compile_calls", "count", "lower"},
	{"pipeline.normalize_calls", "count", "lower"},
	{"pipeline.interp_runs", "count", "lower"},
	{"pipeline.allocs_per_op", "count", "lower"},
	{"pipeline.orchestration_ms", "ms", "lower"},
	{"analysis.builds.dom", "count", "lower"},
	{"analysis.builds.df", "count", "lower"},
	{"analysis.builds.intervals", "count", "lower"},
	{"analysis.builds.rpo", "count", "lower"},
	{"analysis.builds.code", "count", "lower"},
	{"analysis.builds.liveness", "count", "lower"},
	{"analysis.builds.pressure", "count", "lower"},
	{"core.promote_ms", "ms", "lower"},
	{"core.webs_considered", "count", "higher"},
	{"core.webs_promoted", "count", "higher"},
	{"core.promote_ratio", "ratio", "higher"},
	{"ssa.build_ms", "ms", "lower"},
	{"ssa.destruct_ms", "ms", "lower"},
	{"ir.verify_ms", "ms", "lower"},
	{"profile.estimate_ms", "ms", "lower"},
	{"source.compile_ms", "ms", "lower"},
	{"irimport.compile_ms", "ms", "lower"},
	{"alias.analyze_ms", "ms", "lower"},
	{"cfg.normalize_ms", "ms", "lower"},
	{"report.encode_ms", "ms", "lower"},
	{"server.handler_ms", "ms", "lower"},
	{"server.hit_ms", "ms", "lower"},
	{"server.miss_ms", "ms", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.pipeline_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.collapsed", "count", "higher"},
	{"router.hop_ms", "ms", "lower"},
	{"router.hedges", "count", "lower"},
	{"router.spills", "count", "lower"},
	{"client.transport_ms", "ms", "lower"},
	{"client.gen_late_ms", "ms", "lower"},
	{"client.latency_p99_ms", "ms", "lower"},
	// The p90 of the latency whose median is end-to-end. It is recorded,
	// not gated: between runs of the same code on a shared host it
	// spread 15-36% (interquartile range over median), wider than the
	// largest bound allowed.
	{"latency_p90_ms", "ms", "lower"},
	{"trace.untraced_ms", "ms", "lower"},
	{"trace.traced_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"error_ratio", "ratio", "lower"},
	{"unverified", "count", "lower"},
}

// measured is one metric's value plus what the record needs to judge
// it: the sample behind it and its spread.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarizes (requests,
	// program runs or corpus passes); 0 for exact totals.
	Samples int `json:"samples,omitempty"`
	// Quantile is the percentile a tail value reports.
	Quantile float64 `json:"quantile,omitempty"`
	// Q1/Median/Q3 describe the per-repeat values where there are
	// several.
	Q1     *float64 `json:"q1,omitempty"`
	Median *float64 `json:"median,omitempty"`
	Q3     *float64 `json:"q3,omitempty"`
	// NotApplicable marks a layer this workload does not exercise; its
	// value is 0.
	NotApplicable bool   `json:"not_applicable,omitempty"`
	Note          string `json:"note,omitempty"`
}

// outcome is one run's result: counts, metrics and any problems found.
type outcome struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     bool                `json:"trace"`
	Seconds   int                 `json:"seconds"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Problems  []string            `json:"problems,omitempty"`
	Repeats   int                 `json:"repeats"`
	Metrics   map[string]measured `json:"metrics"`
	// WallS and CPUS bracket the measured phase: wall time beside the
	// process's user+system CPU time over it.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// Programs has one row per batch program.
	Programs []programRow `json:"programs,omitempty"`
	// Details holds workload-specific figures behind the metrics.
	Details map[string]float64 `json:"details,omitempty"`
	Host    hostInfo           `json:"host"`
}

// programRow is one batch program's result within a run.
type programRow struct {
	Name              string  `json:"name"`
	Runs              int     `json:"runs"`
	LatencyP50MS      float64 `json:"latency_p50_ms"`
	LatencyMinMS      float64 `json:"latency_min_ms"`
	Verified          bool    `json:"verified"`
	StaticMemopsAfter int     `json:"static_memops_after"`
	DynMemopsAfter    int64   `json:"dyn_memops_after,omitempty"`
	DynStepsAfter     int64   `json:"dyn_steps_after,omitempty"`
	ColorsAfter       int     `json:"colors_after"`
}

// hostInfo describes where and on what code a record was made.
type hostInfo struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Time       string `json:"time"`
}

func newOutcome(wl string, seed int64, trace bool, seconds int) *outcome {
	return &outcome{Workload: wl, Seed: seed, Trace: trace, Seconds: seconds,
		Metrics: make(map[string]measured), Details: make(map[string]float64), Host: describeHost()}
}

// set records a metric; the unit comes from the definition tables.
func (o *outcome) set(name string, v float64, m measured) {
	m.Value, m.Unit = v, unitOf(name)
	o.Metrics[name] = m
}

// setSpread records a metric whose value is the median of per-repeat
// values.
func (o *outcome) setSpread(name string, perRepeat []float64) {
	q1, med, q3 := quartiles(perRepeat)
	o.set(name, med, measured{Samples: len(perRepeat), Q1: &q1, Median: &med, Q3: &q3})
}

// setWindowed records a metric whose value is the median of
// per-window values, with the requests behind them.
func (o *outcome) setWindowed(name string, perWindow []float64, samples int, note string) {
	q1, med, q3 := quartiles(perWindow)
	o.set(name, med, measured{Samples: samples, Q1: &q1, Median: &med, Q3: &q3, Note: note})
}

// fail counts one failed operation and keeps its first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

func unitOf(name string) string {
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undefined metric " + name)
}

// finish marks every metric the mode prints that the workload did not
// measure as not applicable, with value 0.
func (o *outcome) finish() {
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := o.Metrics[d.name]; !ok {
			o.Metrics[d.name] = measured{Unit: d.unit, NotApplicable: true}
		}
	}
}

// summaryLine is the last line of standard output.
func (o *outcome) summaryLine() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	metrics := make(map[string]val, len(defs))
	for _, d := range defs {
		m := o.Metrics[d.name]
		metrics[d.name] = val{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.Failed == 0 && o.Attempted > 0, o.Attempted, o.Failed, metrics})
}

// writeRecord stores the full self-describing record under dir.
func (o *outcome) writeRecord(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.Workload, o.Seed, btoi(o.Trace))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func describeHost() hostInfo {
	h := hostInfo{
		Commit:     "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
