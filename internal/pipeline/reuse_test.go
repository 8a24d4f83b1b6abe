package pipeline_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/source"
	"repro/internal/workload"
)

// walkerBaseline runs w's frontend (compile, alias analysis, normalize)
// independently of the pipeline and interprets the result on the
// pooled tree walker: the measurement the reused training run replaces.
func walkerBaseline(t *testing.T, w workload.Workload) *interp.Result {
	t.Helper()
	compile := source.Compile
	if w.Lang == irimport.LangIR {
		compile = irimport.Compile
	}
	prog, err := compile(w.Src)
	if err != nil {
		t.Fatal(err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			t.Fatal(err)
		}
	}
	res, err := interp.Run(prog, interp.Options{Walker: true, MaxSteps: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func encodeOutcome(t *testing.T, out *pipeline.Outcome) string {
	t.Helper()
	b, err := json.Marshal(report.EncodeOutcome(out))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReusedBaselineMatchesIndependentRun holds Outcome.Before — the
// training run in the default profile mode — to an independent walker
// run of the frontend's output on every suite and imported program and
// a slice of the medium corpus, and requires the encoded outcome to be
// identical for one and four workers.
func TestReusedBaselineMatchesIndependentRun(t *testing.T) {
	progs := append(workload.Suite(), workload.ImportedSuite()...)
	for i := 0; i < 6; i++ {
		w, err := workload.SizedCorpusEntry(13, i, "medium")
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, w)
	}
	for _, w := range progs {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			opts := pipeline.Options{Lang: w.Lang, Workers: 1, Interp: interp.Options{MaxSteps: 50_000_000}}
			out, err := pipeline.Run(w.Src, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, want := out.Before, walkerBaseline(t, w)
			switch {
			case got == nil:
				t.Fatal("no baseline run")
			case got.Profile != nil:
				t.Error("reused baseline still carries the training profile")
			case !reflect.DeepEqual(got.Output, want.Output) || got.ReturnValue != want.ReturnValue:
				t.Errorf("observables differ: %v/%d vs %v/%d", got.Output, got.ReturnValue, want.Output, want.ReturnValue)
			case !reflect.DeepEqual(got.Globals, want.Globals):
				t.Error("final globals differ")
			case !reflect.DeepEqual(got.OpCounts, want.OpCounts) || got.Steps != want.Steps:
				t.Errorf("counts differ: %d steps %v vs %d steps %v", got.Steps, got.OpCounts, want.Steps, want.OpCounts)
			case got.DynLoads() != want.DynLoads() || got.DynStores() != want.DynStores():
				t.Errorf("dynamic loads/stores %d/%d vs %d/%d", got.DynLoads(), got.DynStores(), want.DynLoads(), want.DynStores())
			}

			opts.Workers = 4
			par, err := pipeline.Run(w.Src, opts)
			if err != nil {
				t.Fatal(err)
			}
			if encodeOutcome(t, par) != encodeOutcome(t, out) {
				t.Error("encoded outcome differs between 1 and 4 workers")
			}
		})
	}
}

// TestStageCounts pins how often each mode runs the interpreter and the
// frontend, from Outcome.Timings: the default mode's training run is
// also the baseline measurement, and every mode compiles, analyzes and
// normalizes once.
func TestStageCounts(t *testing.T) {
	train := strings.Replace(multiFunc, "i < 40", "i < 20", 1)
	for _, c := range []struct {
		name   string
		opts   pipeline.Options
		interp int
	}{
		{"default", pipeline.Options{}, 2},
		{"static", pipeline.Options{StaticProfile: true}, 2},
		{"trainsrc", pipeline.Options{TrainSrc: train}, 3},
		{"paranoid", pipeline.Options{Check: pipeline.CheckParanoid, Workers: 4}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := pipeline.Run(multiFunc, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			calls := make(map[string]int)
			for _, tm := range out.Timings {
				calls[tm.Stage]++
			}
			interpRuns := calls[pipeline.StageMeasureBefore] + calls[pipeline.StageMeasureAfter]
			if !c.opts.StaticProfile {
				interpRuns += calls[pipeline.StageTrain]
			}
			got := fmt.Sprintf("interp=%d compile=%d alias=%d normalize=%d",
				interpRuns, calls[pipeline.StageCompile], calls[pipeline.StageAlias], calls[pipeline.StageNormalize])
			want := fmt.Sprintf("interp=%d compile=1 alias=1 normalize=%d", c.interp, len(out.Prog.Funcs))
			if got != want {
				t.Errorf("stage counts %s, want %s", got, want)
			}
			if out.Before == nil || out.After == nil {
				t.Error("a measurement run is missing")
			}
		})
	}
}
