package analysis_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// compileCorpus returns the suite workloads plus generated programs,
// compiled and alias-analyzed but not yet normalized.
func compileCorpus(t *testing.T, generated int) []*ir.Program {
	t.Helper()
	var progs []*ir.Program
	srcs := make([]string, 0, 8+generated)
	for _, w := range workload.Suite() {
		srcs = append(srcs, w.Src)
	}
	for i := 0; i < generated; i++ {
		srcs = append(srcs, workload.Generate(workload.DefaultGenConfig(workload.DeriveSeed(7, i))))
	}
	for _, src := range srcs {
		prog, err := source.Compile(src)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if err := alias.Analyze(prog); err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// requireEqualAnalyses asserts the cache's view of f matches fresh
// rebuilds structurally: dominator tree, frontiers, interval structure,
// and reverse postorder.
func requireEqualAnalyses(t *testing.T, c *analysis.Cache, f *ir.Function) {
	t.Helper()

	dom, freshDom := c.Dom(f), cfg.BuildDomTree(f)
	if len(dom.RPO()) != len(freshDom.RPO()) {
		t.Fatalf("%s: cached dom has %d reachable blocks, fresh %d", f.Name, len(dom.RPO()), len(freshDom.RPO()))
	}
	for _, b := range freshDom.RPO() {
		if dom.Idom(b) != freshDom.Idom(b) {
			t.Fatalf("%s: idom(%v) cached %v, fresh %v", f.Name, b, dom.Idom(b), freshDom.Idom(b))
		}
		if dom.Depth(b) != freshDom.Depth(b) {
			t.Fatalf("%s: depth(%v) cached %d, fresh %d", f.Name, b, dom.Depth(b), freshDom.Depth(b))
		}
	}

	df, freshDF := c.DF(f), cfg.BuildDomFrontiers(freshDom)
	for _, b := range freshDom.RPO() {
		cb, fb := df.Of(b), freshDF.Of(b)
		if len(cb) != len(fb) {
			t.Fatalf("%s: |DF(%v)| cached %d, fresh %d", f.Name, b, len(cb), len(fb))
		}
		for i := range cb {
			if cb[i] != fb[i] {
				t.Fatalf("%s: DF(%v)[%d] cached %v, fresh %v", f.Name, b, i, cb[i], fb[i])
			}
		}
	}

	fo, freshFo := c.Intervals(f), cfg.BuildIntervals(f)
	for _, b := range f.Blocks {
		ci, fi := fo.InnermostInterval(b), freshFo.InnermostInterval(b)
		if (ci == nil) != (fi == nil) {
			t.Fatalf("%s: innermost(%v) presence differs", f.Name, b)
		}
		if ci != nil && (ci.Depth != fi.Depth || ci.Header.ID != fi.Header.ID) {
			t.Fatalf("%s: innermost(%v) cached (hdr %v depth %d), fresh (hdr %v depth %d)",
				f.Name, b, ci.Header, ci.Depth, fi.Header, fi.Depth)
		}
	}

	rpo, freshRPO := c.RPO(f), cfg.ReversePostorder(f)
	if len(rpo) != len(freshRPO) {
		t.Fatalf("%s: RPO length cached %d, fresh %d", f.Name, len(rpo), len(freshRPO))
	}
	for i := range rpo {
		if rpo[i] != freshRPO[i] {
			t.Fatalf("%s: RPO[%d] cached %v, fresh %v", f.Name, i, rpo[i], freshRPO[i])
		}
	}
}

// TestCachedMatchesFresh checks, across the generated corpus, that every
// cached analysis is structurally identical to a fresh rebuild — before
// any CFG mutation, after Normalize, and after SSA construction (which
// removes unreachable blocks and may leave the version untouched or
// bumped; either way the cache must agree with fresh results).
func TestCachedMatchesFresh(t *testing.T) {
	for _, prog := range compileCorpus(t, 10) {
		c := analysis.New()
		for _, f := range prog.Funcs {
			requireEqualAnalyses(t, c, f)

			if _, err := cfg.Normalize(f); err != nil {
				t.Fatalf("Normalize(%s): %v", f.Name, err)
			}
			requireEqualAnalyses(t, c, f)

			dom := c.Dom(f)
			if err := ssa.BuildWith(f, dom, c.DF(f)); err != nil {
				t.Fatalf("ssa.BuildWith(%s): %v", f.Name, err)
			}
			requireEqualAnalyses(t, c, f)
		}
	}
}

// TestCacheHitsDoNotRebuild asserts repeated access at an unchanged CFG
// version serves hits: the per-kind build log gains no entries.
func TestCacheHitsDoNotRebuild(t *testing.T) {
	prog := compileCorpus(t, 1)[0]
	c := analysis.New()
	for _, f := range prog.Funcs {
		for i := 0; i < 3; i++ {
			c.Dom(f)
			c.DF(f)
			c.Intervals(f)
			c.RPO(f)
		}
		for kind, builds := range c.Builds(f) {
			if len(builds) != 1 {
				t.Errorf("%s: %s built %d times at version %v, want 1", f.Name, kind, len(builds), builds)
			}
		}
	}
}

// TestParanoidCatchesMissedBump checks the CheckParanoid safety net: a
// direct Preds/Succs edit without MarkCFGChanged must make the next
// paranoid cache hit panic.
func TestParanoidCatchesMissedBump(t *testing.T) {
	prog := compileCorpus(t, 0)[0]
	var target *ir.Function
	for _, f := range prog.Funcs {
		if len(f.Blocks) >= 3 && len(f.Blocks[0].Succs) == 1 {
			target = f
			break
		}
	}
	if target == nil {
		t.Skip("no suitable function in first workload")
	}
	c := analysis.New()
	c.Paranoid = true
	c.Dom(target)

	// Illegally rewire the entry's successor edge straight to a later
	// block, bypassing the ir mutators (and so the version bump).
	entry := target.Entry()
	old := entry.Succs[0]
	var repl *ir.Block
	for _, b := range old.Succs {
		if b != old {
			repl = b
			break
		}
	}
	if repl == nil {
		t.Skip("no replacement successor available")
	}
	entry.Succs[0] = repl
	repl.Preds = append(repl.Preds, entry)

	defer func() {
		if recover() == nil {
			t.Fatal("paranoid cache hit did not panic after unannounced CFG edit")
		}
	}()
	c.Dom(target)
}

// TestPipelineBuildsOncePerVersion runs the full pipeline over the suite
// workloads with an instrumented cache and asserts the cache-coherence
// goal of the cross-stage design: no CFG analysis is computed more than
// once per CFG version per function, and no content-keyed analysis
// (code, liveness, pressure) more than once per CFG version and
// instruction fingerprint. The pipeline promotes in place, so the
// training run and the measure-after run compile the same function,
// often at one CFG version but with promotion's rewrites in between.
// The CFG analyses log a zero fingerprint, so for them each build is
// unique by version alone.
func TestPipelineBuildsOncePerVersion(t *testing.T) {
	for _, w := range workload.Suite() {
		cache := analysis.New()
		_, err := pipeline.Run(w.Src, pipeline.Options{
			PreMemOpts:    true,
			Check:         pipeline.CheckBoundaries,
			AnalysisCache: cache,
		})
		if err != nil {
			t.Fatalf("%s: pipeline.Run: %v", w.Name, err)
		}
		for _, f := range cache.Functions() {
			for kind, builds := range cache.Builds(f) {
				seen := make(map[analysis.Build]bool, len(builds))
				for _, b := range builds {
					if seen[b] {
						t.Errorf("%s/%s: %s built twice at CFG version %d, fingerprint %#x (builds %v)",
							w.Name, f.Name, kind, b.Version, b.Fingerprint, builds)
						break
					}
					seen[b] = true
				}
			}
		}
	}
}
