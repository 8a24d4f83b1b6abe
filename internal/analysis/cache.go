// Package analysis memoizes per-function CFG analyses across pipeline
// stages. Each cached result is keyed on ir.Function.CFGVersion, the
// counter every CFG mutation point bumps (DESIGN.md §8): a hit means the
// graph has not changed shape since the analysis was computed, so the
// normalize→train→build→memopt→promote→verify chain computes dominators,
// frontiers, intervals, and reverse postorder once per CFG shape instead
// of once per stage.
//
// The cache is safe for concurrent use by the pipeline's worker pool.
// The map of per-function entries is guarded by one mutex; each entry
// has its own, so workers transforming different functions never
// serialize on each other's analysis builds.
package analysis

import (
	"fmt"
	"sync"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// Kind names one cached analysis, for instrumentation.
type Kind string

// The cached analysis kinds.
const (
	KindDom       Kind = "dom"
	KindDF        Kind = "df"
	KindIntervals Kind = "intervals"
	KindRPO       Kind = "rpo"
	// KindCode tracks compiled interpreter bytecode. Unlike the CFG
	// analyses, code also depends on instruction content, which can
	// change at a fixed CFG version (SSA construction, promotion
	// rewrites); the interpreter therefore revalidates entries with its
	// own fingerprint and may legitimately rebuild at an unchanged
	// version. Builds for this kind are once per (version, instruction
	// stream), not once per version.
	KindCode Kind = "code"
	// KindLiveness and KindPressure track the static liveness analysis
	// and its per-interval MaxLive summary. Like KindCode they depend on
	// instruction content, so entries are keyed on (CFG version,
	// liveness.Fingerprint) and builds are once per (version, stream).
	KindLiveness Kind = "liveness"
	KindPressure Kind = "pressure"
)

// Kinds lists every cached analysis kind, in a fixed order — the
// serving layer iterates this to export per-kind build counters.
func Kinds() []Kind {
	return []Kind{KindDom, KindDF, KindIntervals, KindRPO, KindCode, KindLiveness, KindPressure}
}

// Build is one entry of a function's build log: a fresh build of one
// analysis kind. Version is the CFG version it ran at. Fingerprint is
// the instruction fingerprint the content-keyed kinds (code, liveness,
// pressure) were built for, and zero for the CFG analyses, which
// depend on the block graph alone.
type Build struct {
	Version, Fingerprint uint64
}

// Cache memoizes CFG analyses per function, keyed on the CFG version.
type Cache struct {
	// Paranoid makes every cache hit revalidate against a fresh rebuild
	// and panic on structural mismatch — the pipeline sets it at
	// CheckParanoid to catch missing version bumps.
	Paranoid bool

	mu      sync.Mutex
	entries map[*ir.Function]*entry
}

// entry is the cache line of one function. Each analysis slot remembers
// the CFG version it was built at; builds[kind] logs every fresh build,
// so tests can assert at most one build per version for the CFG
// analyses and per (version, fingerprint) for the content-keyed kinds.
type entry struct {
	mu sync.Mutex

	domVersion uint64
	dom        *cfg.DomTree

	dfVersion uint64
	df        cfg.DomFrontiers
	dfValid   bool

	ivVersion uint64
	intervals *cfg.Forest

	rpoVersion uint64
	rpo        []*ir.Block

	// code holds compiled interpreter bytecode as an opaque value: the
	// interpreter owns the format and the validity check (CFG version
	// plus instruction fingerprint); the cache just stores, serves, and
	// instruments it.
	code      any
	codeValid bool

	// live and pressure are keyed on (CFG version, instruction
	// fingerprint), both recorded inside the values themselves.
	live     *liveness.Info
	pressure *liveness.Pressure

	builds map[Kind][]Build
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: make(map[*ir.Function]*entry)}
}

func (c *Cache) entryFor(f *ir.Function) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[f]
	if e == nil {
		e = &entry{builds: make(map[Kind][]Build)}
		c.entries[f] = e
	}
	return e
}

// Dom returns the dominator tree of f, rebuilding only if the CFG
// version moved since the last build.
func (c *Cache) Dom(f *ir.Function) *cfg.DomTree {
	e := c.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	v := f.CFGVersion()
	if e.dom != nil && e.domVersion == v {
		if c.Paranoid {
			verifyDom(f, e.dom)
		}
		return e.dom
	}
	e.dom = cfg.BuildDomTree(f)
	e.domVersion = v
	e.builds[KindDom] = append(e.builds[KindDom], Build{Version: v})
	return e.dom
}

// DF returns the dominance frontiers of f, building the dominator tree
// as needed.
func (c *Cache) DF(f *ir.Function) cfg.DomFrontiers {
	dom := c.Dom(f)
	e := c.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	v := f.CFGVersion()
	if e.dfValid && e.dfVersion == v {
		if c.Paranoid {
			verifyDF(f, dom, e.df)
		}
		return e.df
	}
	e.df = cfg.BuildDomFrontiers(dom)
	e.dfValid = true
	e.dfVersion = v
	e.builds[KindDF] = append(e.builds[KindDF], Build{Version: v})
	return e.df
}

// Intervals returns the interval forest of f.
func (c *Cache) Intervals(f *ir.Function) *cfg.Forest {
	e := c.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	v := f.CFGVersion()
	if e.intervals != nil && e.ivVersion == v {
		if c.Paranoid {
			verifyIntervals(f, e.intervals)
		}
		return e.intervals
	}
	e.intervals = cfg.BuildIntervals(f)
	e.ivVersion = v
	e.builds[KindIntervals] = append(e.builds[KindIntervals], Build{Version: v})
	return e.intervals
}

// RPO returns the reachable blocks of f in reverse postorder.
func (c *Cache) RPO(f *ir.Function) []*ir.Block {
	e := c.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	v := f.CFGVersion()
	if e.rpo != nil && e.rpoVersion == v {
		return e.rpo
	}
	e.rpo = cfg.ReversePostorder(f)
	e.rpoVersion = v
	e.builds[KindRPO] = append(e.builds[KindRPO], Build{Version: v})
	return e.rpo
}

// PutIntervals seeds the interval slot with a forest the caller just
// built at the current CFG version (cfg.Normalize returns one), so the
// cache need not recompute it. A Preheader-annotated forest in
// particular is only produced by Normalize; later Intervals calls at
// the same version return it unchanged.
func (c *Cache) PutIntervals(f *ir.Function, fo *cfg.Forest) {
	e := c.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.intervals = fo
	e.ivVersion = f.CFGVersion()
}

// CompiledCode returns the cached interpreter bytecode for f, if any.
// The caller (interp.Run) validates the unit against the function's
// current CFG version and instruction fingerprint before executing it;
// the cache itself makes no freshness promise. Implements
// interp.CodeCache.
func (c *Cache) CompiledCode(f *ir.Function) (any, bool) {
	e := c.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.codeValid {
		return nil, false
	}
	return e.code, true
}

// PutCompiledCode stores freshly compiled interpreter bytecode for f
// and logs the build at the current CFG version and the code's
// instruction fingerprint. Implements interp.CodeCache.
func (c *Cache) PutCompiledCode(f *ir.Function, code any, fingerprint uint64) {
	e := c.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.code = code
	e.codeValid = true
	e.builds[KindCode] = append(e.builds[KindCode], Build{Version: f.CFGVersion(), Fingerprint: fingerprint})
}

// Liveness returns the static liveness analysis of f, rebuilding when
// either the CFG version or the instruction-stream fingerprint moved
// since the last build — promotion rewrites loads and stores without
// touching the CFG, and liveness must see the rewrite.
func (c *Cache) Liveness(f *ir.Function) *liveness.Info {
	e := c.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	v := f.CFGVersion()
	fp := liveness.Fingerprint(f)
	if e.live != nil && e.live.Version == v && e.live.Fingerprint == fp {
		if c.Paranoid {
			verifyLiveness(f, e.live)
		}
		return e.live
	}
	e.live = liveness.Compute(f)
	e.builds[KindLiveness] = append(e.builds[KindLiveness], Build{Version: v, Fingerprint: fp})
	return e.live
}

// Pressure returns the per-interval MaxLive summary of f, derived from
// the cached liveness and interval forest and keyed the same way as
// Liveness.
func (c *Cache) Pressure(f *ir.Function) *liveness.Pressure {
	info := c.Liveness(f)
	forest := c.Intervals(f)
	e := c.entryFor(f)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pressure != nil && e.pressure.Version == info.Version && e.pressure.Fingerprint == info.Fingerprint {
		if c.Paranoid {
			verifyPressure(f, info, forest, e.pressure)
		}
		return e.pressure
	}
	e.pressure = liveness.ComputePressure(info, forest)
	e.builds[KindPressure] = append(e.builds[KindPressure], Build{Version: info.Version, Fingerprint: info.Fingerprint})
	return e.pressure
}

// Invalidate drops every cached analysis of f. The pipeline calls it
// when a function object is replaced wholesale (rollback), so
// a recycled pointer with a rewound version counter cannot alias a
// stale entry.
func (c *Cache) Invalidate(f *ir.Function) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, f)
}

// Builds reports, per analysis kind, every fresh build of f's analysis
// (in build order, duplicates included). The cache-coherence test
// asserts each version appears at most once for the CFG analyses, and
// each (version, fingerprint) at most once for the content-keyed kinds.
func (c *Cache) Builds(f *ir.Function) map[Kind][]Build {
	c.mu.Lock()
	e := c.entries[f]
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[Kind][]Build, len(e.builds))
	for k, bs := range e.builds {
		out[k] = append([]Build(nil), bs...)
	}
	return out
}

// TotalBuilds sums the per-function build counts for every kind — the
// serving layer aggregates these into its /metrics gauges.
func (c *Cache) TotalBuilds() map[Kind]int {
	c.mu.Lock()
	entries := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	out := make(map[Kind]int)
	for _, e := range entries {
		e.mu.Lock()
		for k, vs := range e.builds {
			out[k] += len(vs)
		}
		e.mu.Unlock()
	}
	return out
}

// Functions returns every function with a cache entry.
func (c *Cache) Functions() []*ir.Function {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := make([]*ir.Function, 0, len(c.entries))
	for f := range c.entries {
		fs = append(fs, f)
	}
	return fs
}

// verifyDom panics unless the cached tree matches a fresh rebuild.
func verifyDom(f *ir.Function, cached *cfg.DomTree) {
	fresh := cfg.BuildDomTree(f)
	if len(fresh.RPO()) != len(cached.RPO()) {
		panic(fmt.Sprintf("analysis: stale dom tree for %s: %d reachable blocks cached, %d fresh (missing CFG version bump?)", f.Name, len(cached.RPO()), len(fresh.RPO())))
	}
	for _, b := range fresh.RPO() {
		if cached.Idom(b) != fresh.Idom(b) {
			panic(fmt.Sprintf("analysis: stale dom tree for %s: idom(%v) cached %v, fresh %v (missing CFG version bump?)", f.Name, b, cached.Idom(b), fresh.Idom(b)))
		}
	}
}

// verifyDF panics unless the cached frontiers match a fresh rebuild.
func verifyDF(f *ir.Function, dom *cfg.DomTree, cached cfg.DomFrontiers) {
	fresh := cfg.BuildDomFrontiers(dom)
	for _, b := range dom.RPO() {
		cf, ff := cached.Of(b), fresh.Of(b)
		if len(cf) != len(ff) {
			panic(fmt.Sprintf("analysis: stale frontiers for %s at %v (missing CFG version bump?)", f.Name, b))
		}
		for i := range cf {
			if cf[i] != ff[i] {
				panic(fmt.Sprintf("analysis: stale frontiers for %s at %v (missing CFG version bump?)", f.Name, b))
			}
		}
	}
}

// verifyLiveness panics unless the cached liveness matches a fresh
// rebuild.
func verifyLiveness(f *ir.Function, cached *liveness.Info) {
	fresh := liveness.Compute(f)
	if !cached.Equal(fresh) {
		panic(fmt.Sprintf("analysis: stale liveness for %s: cached MaxLive %d, fresh %d (missing CFG version bump or fingerprint change?)", f.Name, cached.MaxLive, fresh.MaxLive))
	}
}

// verifyPressure panics unless the cached pressure summary matches one
// freshly derived from the given liveness and forest.
func verifyPressure(f *ir.Function, info *liveness.Info, forest *cfg.Forest, cached *liveness.Pressure) {
	fresh := liveness.ComputePressure(info, forest)
	if !cached.Equal(fresh) {
		panic(fmt.Sprintf("analysis: stale pressure summary for %s (missing CFG version bump or fingerprint change?)", f.Name))
	}
}

// verifyIntervals panics unless the cached forest has the same structure
// as a fresh rebuild: per-block innermost header and depth, and the same
// member sets. Preheader annotations are excluded — only Normalize sets
// them, so a fresh BuildIntervals cannot reproduce them.
func verifyIntervals(f *ir.Function, cached *cfg.Forest) {
	fresh := cfg.BuildIntervals(f)
	for _, b := range f.Blocks {
		ci, fi := cached.InnermostInterval(b), fresh.InnermostInterval(b)
		switch {
		case (ci == nil) != (fi == nil):
			panic(fmt.Sprintf("analysis: stale intervals for %s: innermost(%v) presence differs (missing CFG version bump?)", f.Name, b))
		case ci == nil:
		case ci.Depth != fi.Depth || ci.Header.ID != fi.Header.ID:
			panic(fmt.Sprintf("analysis: stale intervals for %s: innermost(%v) cached (hdr %v depth %d), fresh (hdr %v depth %d)", f.Name, b, ci.Header, ci.Depth, fi.Header, fi.Depth))
		}
	}
}
