package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/report"
)

// batch is a batch workload: a fixed program set run one program after
// another through pipeline.Run with the program's default options.
type batch struct {
	name   string
	static bool // StaticProfile + SkipMeasurement: compile-only use
	progs  []program
	refs   map[string]reference
	// unverified counts programs whose reference run did not complete.
	unverified int
}

// options is the zero pipeline.Options apart from the input language,
// plus the compile-only switches for the static workload.
func (b *batch) options(p program) pipeline.Options {
	return pipeline.Options{Lang: p.Lang, StaticProfile: b.static, SkipMeasurement: b.static}
}

// setupBatch builds the workload's inputs, checks them against the
// frozen corpus digest and runs them once untimed.
func setupBatch(name string) (*batch, error) {
	fs, err := loadFrozen(name)
	if err != nil {
		return nil, err
	}
	progs, _, err := workloadInputs(name)
	if err != nil {
		return nil, err
	}
	refs, err := fs.check(progs)
	if err != nil {
		return nil, err
	}
	b := &batch{name: name, static: name == wlGenLarge, progs: progs, refs: refs}
	for _, r := range refs {
		if !r.Verified {
			b.unverified++
		}
	}
	// One pass warms the heap and lazily built tables before timing; a
	// failing program is counted when the timed passes run it.
	for _, p := range b.progs {
		_, _ = pipeline.Run(p.Src, b.options(p))
	}
	return b, nil
}

// summary is the part of an outcome every repeat of a program must
// reproduce exactly.
type summary struct {
	static       pipeline.StaticCounts
	total        core.Stats
	before       dynCounts
	after        dynCounts
	degradations int
}

type dynCounts struct {
	loads, stores, steps int64
	digest               string
}

func countsOf(r *interp.Result) dynCounts {
	if r == nil {
		return dynCounts{}
	}
	return dynCounts{r.DynLoads(), r.DynStores(), r.Steps, behaviourDigest(r.Output, r.ReturnValue, r.Globals)}
}

func summarize(out *pipeline.Outcome) summary {
	return summary{out.StaticAfter, out.TotalStats, countsOf(out.Before), countsOf(out.After), len(out.Degraded)}
}

// verifyMeasured checks a measured outcome against the program's frozen
// reference: the unpromoted run must match the reference's behaviour
// and memory-operation counts, and the promoted run its behaviour.
func verifyMeasured(out *pipeline.Outcome, ref reference) error {
	if out.Before == nil || out.After == nil {
		return fmt.Errorf("no measurement runs")
	}
	before, after := countsOf(out.Before), countsOf(out.After)
	switch {
	case before.digest != ref.Digest:
		return fmt.Errorf("unpromoted behaviour differs from the reference")
	case before.loads != ref.DynLoads || before.stores != ref.DynStores:
		return fmt.Errorf("unpromoted loads/stores %d/%d, reference %d/%d",
			before.loads, before.stores, ref.DynLoads, ref.DynStores)
	case after.digest != ref.Digest:
		return fmt.Errorf("promoted behaviour differs from the reference")
	}
	return nil
}

// colors sums regalloc colors over every function of prog.
func colors(prog *ir.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		n += regalloc.Allocate(f).Colors
	}
	return n
}

// runBatch measures a batch workload: whole passes over the program
// set, each in a seed-shuffled order, until the time budget is spent.
func runBatch(o *outcome, b *batch, seconds int, rng *rand.Rand) {
	first := make(map[string]*pipeline.Outcome, len(b.progs))
	seen := make(map[string]summary, len(b.progs))
	perProg := make(map[string][]float64, len(b.progs))
	var lat, cpu, passRate []float64

	budget := time.Duration(seconds) * time.Second
	wall0, cpu0 := time.Now(), cpuTime()
	for time.Since(wall0) < budget {
		o.Repeats++
		passStart := time.Now()
		for _, i := range rng.Perm(len(b.progs)) {
			p := b.progs[i]
			c0, t0 := cpuTime(), time.Now()
			out, err := pipeline.Run(p.Src, b.options(p))
			dt, dc := time.Since(t0), cpuTime()-c0
			o.Attempted++
			lat = append(lat, ms(dt))
			perProg[p.Name] = append(perProg[p.Name], ms(dt))
			cpu = append(cpu, ms(dc))
			if err != nil {
				o.fail("%s: %v", p.Name, err)
				continue
			}
			s := summarize(out)
			if prev, ok := seen[p.Name]; !ok {
				seen[p.Name], first[p.Name] = s, out
			} else if s != prev {
				o.fail("%s: outcome differs between repeats", p.Name)
			}
		}
		passRate = append(passRate, float64(len(b.progs))/time.Since(passStart).Seconds())
	}
	o.WallS, o.CPUS = time.Since(wall0).Seconds(), (cpuTime() - cpu0).Seconds()

	// Correctness and the exact counts, from each program's first run;
	// one row per program in the record.
	var dynMem, dynSteps, static, nColors int64
	for _, p := range b.progs {
		out, ref := first[p.Name], b.refs[p.Name]
		if out == nil {
			continue
		}
		d := newDist(perProg[p.Name])
		row := programRow{Name: p.Name, Runs: d.n(), LatencyP50MS: d.q(0.5), LatencyMinMS: d.q(0),
			StaticMemopsAfter: out.StaticAfter.Total(), ColorsAfter: colors(out.Prog), Verified: ref.Verified}
		static += int64(row.StaticMemopsAfter)
		nColors += int64(row.ColorsAfter)
		if ref.Verified {
			after, err := b.afterCounts(out, ref)
			if err != nil {
				o.fail("%s: %v", p.Name, err)
				continue
			}
			row.DynMemopsAfter, row.DynStepsAfter = after.loads+after.stores, after.steps
			dynMem += row.DynMemopsAfter
			dynSteps += row.DynStepsAfter
		}
		o.Programs = append(o.Programs, row)
	}

	q1, med, q3 := quartiles(passRate)
	o.set("throughput_per_s", float64(o.Attempted)/o.WallS, measured{Samples: len(passRate), Q1: &q1, Median: &med, Q3: &q3,
		Note: "programs over the measured wall time; quartiles are per corpus pass"})
	setBestLatency(o, perProg)
	pooled := newDist(lat)
	o.Details["pooled_latency_p50_ms"] = pooled.q(0.5)
	o.Details["pooled_latency_p90_ms"] = pooled.q(0.9)
	o.Details["pooled_latency_samples"] = float64(pooled.n())
	o.Details["pooled_tail_quantile"] = tailQuantile(pooled.n())
	o.set("cpu_ms_per_op", perOp(sum(cpu), len(cpu)), measured{Samples: len(cpu)})
	o.set("peak_rss_mb", peakRSSMB(), measured{})
	o.set("dyn_memops_after", float64(dynMem), measured{Note: "verified programs only"})
	o.set("dyn_steps_after", float64(dynSteps), measured{Note: "verified programs only"})
	o.set("static_memops_after", float64(static), measured{})
	o.set("colors_after", float64(nColors), measured{})
	o.set("unverified", float64(b.unverified), measured{})
	o.set("error_ratio", ratio(float64(o.Failed), float64(o.Attempted)), measured{Samples: o.Attempted})
}

// setBestLatency sets the latency percentiles across programs of each
// program's fastest run. A shared host alternates between an
// uncontended state and one about 1.6 times slower, for seconds at a
// time, so a program's median run flips with the share of each state in
// a run; its fastest run does not.
func setBestLatency(o *outcome, perProg map[string][]float64) {
	var best []float64
	for _, v := range perProg {
		best = append(best, newDist(v).q(0))
	}
	d := newDist(best)
	note := fmt.Sprintf("across %d programs of each one's fastest run in %d passes", d.n(), o.Repeats)
	o.set("latency_p50_ms", d.q(0.5), measured{Samples: d.n(), Quantile: 0.5, Note: note})
	o.set("latency_p90_ms", d.q(0.9), measured{Samples: d.n(), Quantile: 0.9, Note: note})
}

// afterCounts returns the promoted program's dynamic counts, checked
// against the reference. A compile-only run never interpreted the
// promoted program, so the benchmark runs it here, outside the timing.
func (b *batch) afterCounts(out *pipeline.Outcome, ref reference) (dynCounts, error) {
	if !b.static {
		if err := verifyMeasured(out, ref); err != nil {
			return dynCounts{}, err
		}
		return countsOf(out.After), nil
	}
	res, err := interp.Run(out.Prog, interp.Options{})
	if err != nil {
		return dynCounts{}, fmt.Errorf("promoted program: %w", err)
	}
	after := countsOf(res)
	if after.digest != ref.Digest {
		return dynCounts{}, fmt.Errorf("promoted behaviour differs from the reference")
	}
	return after, nil
}

// runBatchTraced is the per-layer run: every program goes once through
// pipeline.Run (untraced, with an inspectable analysis cache) and once
// through the traced replay, whose results must equal the pipeline's.
func runBatchTraced(o *outcome, b *batch, seconds int, rng *rand.Rand) {
	tr := newTracer()
	self := make(map[string]time.Duration)
	builds := make(map[analysis.Kind]int)
	stageCalls := make(map[string]int)
	var untraced, traced, encode []float64
	perProg := make(map[string][]float64, len(b.progs))
	var mallocs uint64
	var steps, interpRuns int64
	var considered, promoted int

	budget := time.Duration(seconds) * time.Second
	wall0, cpu0 := time.Now(), cpuTime()
	for time.Since(wall0) < budget {
		o.Repeats++
		for _, i := range rng.Perm(len(b.progs)) {
			p := b.progs[i]
			o.Attempted++
			cache := analysis.New()
			opts := b.options(p)
			opts.AnalysisCache = cache
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			out, err := pipeline.Run(p.Src, opts)
			dt := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				o.fail("%s: %v", p.Name, err)
				continue
			}
			untraced = append(untraced, ms(dt))
			perProg[p.Name] = append(perProg[p.Name], ms(dt))
			mallocs += ms1.Mallocs - ms0.Mallocs
			for k, n := range cache.TotalBuilds() {
				builds[k] += n
			}
			for _, t := range out.Timings {
				stageCalls[t.Stage]++
			}

			t1 := time.Now()
			enc, err := json.Marshal(report.EncodeOutcome(out))
			encode = append(encode, ms(time.Since(t1)))
			if err != nil || len(enc) == 0 {
				o.fail("%s: encoding outcome: %v", p.Name, err)
				continue
			}

			tr.reset()
			res, err := replay(p, b.static, tr)
			if err != nil {
				o.fail("%s: traced replay: %v", p.Name, err)
				continue
			}
			if err := res.matches(out); err != nil {
				o.fail("%s: traced replay disagrees with pipeline.Run: %v", p.Name, err)
				continue
			}
			if ref := b.refs[p.Name]; !b.static && ref.Verified {
				if err := verifyMeasured(out, ref); err != nil {
					o.fail("%s: %v", p.Name, err)
					continue
				}
			}
			root := tr.spans[0]
			traced = append(traced, ms(root.end-root.start))
			for name, d := range selfTimes(tr.spans) {
				self[name] += d
			}
			steps += res.steps
			interpRuns += int64(res.interpRuns)
			considered += res.total.WebsConsidered
			promoted += res.total.WebsPromoted
		}
	}
	o.WallS, o.CPUS = time.Since(wall0).Seconds(), (cpuTime() - cpu0).Seconds()

	n := len(traced)
	layer := func(metric, spanName string) {
		o.set(metric, perOp(ms(self[spanName]), n), measured{Samples: n})
	}
	layer("source.compile_ms", "source.compile")
	layer("irimport.compile_ms", "irimport.compile")
	layer("alias.analyze_ms", "alias.analyze")
	layer("cfg.normalize_ms", "cfg.normalize")
	layer("ssa.build_ms", "ssa.build")
	layer("core.promote_ms", "core.promote")
	layer("ssa.destruct_ms", "ssa.destruct")
	layer("ir.verify_ms", "ir.verify")
	if b.static {
		layer("profile.estimate_ms", "profile.estimate")
	} else {
		layer("interp.train_ms", "interp.train")
		layer("interp.measure_ms", "interp.measure")
		o.set("interp.runs", perOp(float64(interpRuns), n), measured{Samples: n})
		o.set("interp.steps", perOp(float64(steps), n), measured{Samples: n})
		interpNS := float64(self["interp.train"] + self["interp.measure"])
		o.set("interp.ns_per_step", ratio(interpNS, float64(steps)), measured{Samples: n})
	}
	ops := len(untraced)
	o.set("pipeline.compile_calls", perOp(float64(stageCalls[pipeline.StageCompile]), ops), measured{Samples: ops})
	o.set("pipeline.normalize_calls", perOp(float64(stageCalls[pipeline.StageNormalize]), ops), measured{Samples: ops})
	runs := stageCalls[pipeline.StageMeasureBefore] + stageCalls[pipeline.StageMeasureAfter]
	if !b.static {
		runs += stageCalls[pipeline.StageTrain]
	}
	o.set("pipeline.interp_runs", perOp(float64(runs), ops), measured{Samples: ops})
	o.set("pipeline.allocs_per_op", perOp(float64(mallocs), ops), measured{Samples: ops})
	for _, k := range analysis.Kinds() {
		o.set("analysis.builds."+string(k), perOp(float64(builds[k]), ops), measured{Samples: ops})
	}
	o.set("core.webs_considered", perOp(float64(considered), n), measured{Samples: n})
	o.set("core.webs_promoted", perOp(float64(promoted), n), measured{Samples: n})
	o.set("core.promote_ratio", ratio(float64(promoted), float64(considered)), measured{Samples: n})
	o.set("report.encode_ms", mean(encode), measured{Samples: len(encode)})

	// Per program: the untraced pipeline, the traced replay, and the
	// layers' summed self time against the untraced latency.
	var layers time.Duration
	for name, d := range self {
		if name != "program" {
			layers += d
		}
	}
	o.Details["layers_self_ms"] = perOp(ms(layers), n)
	o.Details["replay_glue_ms"] = perOp(ms(self["program"]), n)
	um, tm := mean(untraced), mean(traced)
	o.set("trace.untraced_ms", um, measured{Samples: len(untraced)})
	o.set("trace.traced_ms", tm, measured{Samples: n})
	o.set("trace.overhead_ms", tm-um, measured{Samples: n})
	o.set("pipeline.orchestration_ms", um-perOp(ms(layers), n), measured{Samples: n,
		Note: "untraced pipeline.Run latency minus the summed self time of the module calls it makes"})
	setBestLatency(o, perProg)
	o.set("error_ratio", ratio(float64(o.Failed), float64(o.Attempted)), measured{Samples: o.Attempted})
	o.set("unverified", float64(b.unverified), measured{})
}
