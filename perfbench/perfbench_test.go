package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

func TestCorpusDigestFollowsSeed(t *testing.T) {
	digest := func(seed int64) string {
		progs, err := generate(corpusSpec{Seed: seed, Size: "small", Count: 8})
		if err != nil {
			t.Fatal(err)
		}
		return corpusDigest(progs)
	}
	a, b, c := digest(1), digest(1), digest(2)
	if a != b {
		t.Fatalf("same seed, different digests: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 1 and 2 gave the same digest %s", a)
	}
}

func TestFrozenReferencesMatchInputs(t *testing.T) {
	for _, name := range workloadNames {
		fs, err := loadFrozen(name)
		if err != nil {
			t.Fatal(err)
		}
		progs, _, err := workloadInputs(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.check(progs); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		q := tailQuantile(c.n)
		if q != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, q, c.want)
			continue
		}
		if q == 0 {
			continue
		}
		sorted := make([]float64, c.n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		if beyond := c.n - 1 - int(quantile(sorted, q)); beyond < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, 100*q, beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var v []float64
	for i := 10; i >= 1; i-- {
		v = append(v, float64(i))
	}
	q1, med, q3 := quartiles(v)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{name: "root", parent: -1, start: us(0), end: us(100)},
		{name: "a", parent: 0, start: us(10), end: us(30)},
		{name: "b", parent: 0, start: us(20), end: us(50)}, // overlaps a
		{name: "c", parent: 0, start: us(60), end: us(70)},
		{name: "d", parent: 3, start: us(62), end: us(65)},
		{name: "a", parent: 0, start: us(90), end: us(95)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": us(45), "a": us(25), "b": us(30), "c": us(7), "d": us(3)}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("program")
	child := tr.begin("core.promote")
	tr.end(child)
	tr.end(root)
	if tr.spans[child].parent != root || tr.spans[root].parent != -1 {
		t.Fatalf("parents = %d, %d", tr.spans[child].parent, tr.spans[root].parent)
	}
	if tr.spans[root].end < tr.spans[child].end {
		t.Fatal("root closed before its child")
	}
}

// TestReplayAgreesWithPipeline runs the traced replay and pipeline.Run
// on the same programs, then doctors one count at a time and expects
// the equality check to notice each.
func TestReplayAgreesWithPipeline(t *testing.T) {
	progs := suitePrograms()
	for _, c := range []struct {
		p      program
		static bool
	}{{progs[0], false}, {progs[len(progs)-1], false}, {progs[1], true}} {
		out, err := pipeline.Run(c.p.Src, pipeline.Options{Lang: c.p.Lang, StaticProfile: c.static, SkipMeasurement: c.static})
		if err != nil {
			t.Fatal(err)
		}
		d, err := replay(c.p, c.static, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.matches(out); err != nil {
			t.Fatalf("%s: %v", c.p.Name, err)
		}
		doctor := []func(){
			func() { d.staticAfter.Loads++ },
			func() { d.staticBefore.Stores-- },
			func() {
				for _, st := range d.stats {
					st.WebsPromoted++
					break
				}
			},
		}
		if !c.static {
			doctor = append(doctor,
				func() { d.after.Steps++ },
				func() { d.before.OpCounts = nil },
				func() { d.after.Output = append(d.after.Output, 1) })
		}
		for i, f := range doctor {
			d, err = replay(c.p, c.static, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			f()
			if d.matches(out) == nil {
				t.Errorf("%s: doctored count %d went unnoticed", c.p.Name, i)
			}
		}
	}
}

func TestSaltKeepsBehaviour(t *testing.T) {
	progs, err := generate(corpusSpec{Seed: serveCorpus.Seed, Size: serveCorpus.Size, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(progs, suitePrograms()[8]) {
		s := salted(p, "7-1")
		if s.Src == p.Src {
			t.Fatalf("%s: salt did not change the source", p.Name)
		}
		if a, b := referenceRun(p), referenceRun(s); !a.Verified || a != b {
			t.Errorf("%s: salted reference %+v, plain %+v", p.Name, b, a)
		}
	}
}

func TestBenchIDRoundTrip(t *testing.T) {
	tf := &traffic{progs: suitePrograms(), hot: 2, traced: true}
	r := tf.next(rand.New(rand.NewSource(1)))
	id, ok := benchID(r.body)
	if !ok || id != 1 {
		t.Fatalf("benchID = %d, %v", id, ok)
	}
	var req struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(r.body, &req); err != nil || req.Source == "" {
		t.Fatalf("traced body no longer a promote request: %v", err)
	}
	if _, ok := benchID([]byte(`{"source":"x"}`)); ok {
		t.Fatal("untraced body yielded an id")
	}
}

func TestScrapeLabels(t *testing.T) {
	for in, want := range map[string]string{` 4`: "", `{kind="dom"} 4`: `{kind="dom"}`} {
		if got := labelOf(in); got != want {
			t.Errorf("labelOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// and the metric tables the binary prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, binary %v", names, workloadNames)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, binary %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, binary %+v", i, m, d)
			}
		}
	}
}
