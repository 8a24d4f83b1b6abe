// Package core implements the paper's primary contribution: interval-
// scoped, profile-driven scalar register promotion on SSA form (Sastry
// and Ju, PLDI 1998).
//
// The driver walks the function's interval tree bottom-up. Within an
// interval, the unit of promotion is a memory SSA web — the equivalence
// class of singleton resource versions connected by memphi instructions
// (built with union-find, the paper's Figure 3). For each web the pass
// computes, from profile frequencies, the profit of replacing the web's
// loads and stores with register traffic:
//
//	profit = freq(replaceable loads) + freq(deletable stores)
//	       - freq(loads added at phi leaves)
//	       - freq(stores added for aliased loads and at interval tails)
//
// When promotion is profitable, loads are replaced by copies from
// registers materialized along the web's phi structure
// (materializeStoreValue, Figure 6), compensation loads are placed at
// phi leaves on the paths carrying aliased definitions, compensation
// stores are placed before aliased loads and in interval tail blocks,
// and the original stores die during the incremental SSA update for the
// cloned store definitions. Where removing stores alone is
// unprofitable, only loads are replaced and the variable lives in both
// memory and a register. Inner intervals leave dummy aliased loads in
// their preheaders so outer intervals keep memory consistent at the
// boundary.
package core

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/ssa"
)

// Scope selects the promotion scope.
type Scope int

const (
	// ScopeIntervals promotes within each interval of the interval
	// tree, bottom-up — the paper's second approach and its actual
	// algorithm.
	ScopeIntervals Scope = iota
	// ScopeWholeFunction promotes once over the whole function body
	// (the root pseudo-interval) — the paper's first approach, kept as
	// an ablation: it wins on hot loops but inserts redundant loads and
	// stores around every aliased reference elsewhere in the function,
	// which is exactly why the paper rejects it.
	ScopeWholeFunction
)

// Config controls the promotion pass.
type Config struct {
	// Profile supplies block frequencies; required.
	Profile *profile.FuncProfile
	// Scope selects interval-based promotion (the paper's algorithm,
	// default) or whole-function-scope promotion (its rejected first
	// approach, for the ablation benchmarks).
	Scope Scope
	// CountTailStores includes the frequency of stores inserted at
	// interval tails in the store-removal profit. The paper's printed
	// formula omits them; counting them (the default used by the
	// benchmark harness) is strictly safer. Disable to match the
	// paper's formula exactly — the ablation benchmarks compare both.
	CountTailStores bool
	// MaxPromotedWebs bounds the number of webs promoted (fully or
	// load-only) per function, 0 meaning unlimited. Each promoted web
	// adds a long live range, so this is a crude register pressure
	// budget — the knob the paper's conclusion says a production
	// compiler would need. Within an interval, webs are considered in
	// descending profit order when a budget is set; across intervals
	// the budget is spent greedily in the bottom-up traversal order
	// (an inner interval's promotion cannot be deferred, because the
	// enclosing interval's planning depends on it).
	MaxPromotedWebs int
	// KeepCleanupResidue skips the final copy-propagation/DCE sweep,
	// leaving the transformation residue visible (used by tests that
	// inspect intermediate structure).
	KeepCleanupResidue bool
	// PressureBudget, when positive, makes promotion pressure-aware: a
	// web is promoted only if, in every block its promoted register
	// spans, the pre-promotion register pressure (BlockPressure) plus
	// the registers charged by promotions so far plus this web's one
	// register stays within the budget. Webs that do not fit are demoted
	// (left in memory, counted in Stats.WebsDemoted), and within an
	// interval webs are considered in profit-per-pressure order — the
	// cheapest pressure per unit of saved memory traffic first — instead
	// of raw profit order. The budget is a heuristic, not a hard bound
	// on regalloc colors; PromoteUnderPressure wraps it in a
	// trial-and-measure loop for the hard guarantee.
	PressureBudget int
	// BlockPressure is the per-block baseline MaxLive, indexed by
	// ir.BlockID (liveness.Compute on the pre-promotion SSA form).
	// Required when PressureBudget > 0; blocks beyond the slice are
	// treated as pressure 0.
	BlockPressure []int
	// Dom and DF optionally supply prebuilt analyses of f's current CFG
	// (the pipeline passes them from its analysis cache). When Dom is
	// nil or DF is invalid, PromoteFunction computes its own.
	Dom *cfg.DomTree
	DF  cfg.DomFrontiers
}

// Stats reports what promotion did to one function.
type Stats struct {
	WebsConsidered  int
	WebsPromoted    int // full promotions (stores removed or no stores existed)
	WebsLoadOnly    int // partial: loads replaced, stores kept
	WebsRejected    int // unprofitable
	WebsDemoted     int // profitable but over the pressure budget
	LoadsReplaced   int
	StoresDeleted   int
	LoadsInserted   int
	StoresInserted  int
	DummyLoadsAdded int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.WebsConsidered += other.WebsConsidered
	s.WebsPromoted += other.WebsPromoted
	s.WebsLoadOnly += other.WebsLoadOnly
	s.WebsRejected += other.WebsRejected
	s.WebsDemoted += other.WebsDemoted
	s.LoadsReplaced += other.LoadsReplaced
	s.StoresDeleted += other.StoresDeleted
	s.LoadsInserted += other.LoadsInserted
	s.StoresInserted += other.StoresInserted
	s.DummyLoadsAdded += other.DummyLoadsAdded
}

// PromoteFunction runs register promotion over f, which must be in SSA
// form with memory resources annotated, on the normalized CFG described
// by forest. It returns statistics about the transformation.
func PromoteFunction(f *ir.Function, forest *cfg.Forest, config Config) (*Stats, error) {
	if config.Profile == nil {
		return nil, fmt.Errorf("core: promotion requires a profile")
	}
	p := newPromoter(f, forest, config)
	var err error
	if config.Scope == ScopeWholeFunction {
		// The paper's first approach: one promotion pass over the whole
		// function body, ignoring interval structure.
		err = p.promoteInInterval(forest.Root)
	} else {
		forest.Root.Walk(func(iv *cfg.Interval) {
			if err != nil || iv.Root {
				return
			}
			if e := p.promoteInInterval(iv); e != nil {
				err = e
			}
		})
	}
	if err != nil {
		return nil, err
	}

	// The paper's cleanup(): dummy aliased loads served their purpose;
	// delete them, then sweep the copy/dead-code residue.
	for _, b := range f.Blocks {
		b.RemoveIf(func(in *ir.Instr) bool { return in.Op == ir.OpDummyLoad })
	}
	if !config.KeepCleanupResidue {
		opt.Cleanup(f)
	}
	return p.stats, nil
}

type promoter struct {
	f      *ir.Function
	forest *cfg.Forest
	config Config
	stats  *Stats
	dom    *cfg.DomTree
	df     cfg.DomFrontiers
	// refs indexes f's memory references by base, so a web's live-out
	// scan and its SSA update visit only the references of the web's
	// base. Every instruction the promoter inserts with a memory
	// reference is added to it.
	refs *ssa.RefIndex
	// webTables is web construction's scratch space, reused by every
	// interval.
	webTables webTables
	// extra, indexed by block ID, counts the registers already charged
	// to each block by promotions in this pass (only allocated when a
	// pressure budget is set).
	extra []int
}

// newPromoter prepares a promotion pass over f: the dominance analyses
// (config's when supplied) and the reference index.
func newPromoter(f *ir.Function, forest *cfg.Forest, config Config) *promoter {
	p := &promoter{
		f:      f,
		forest: forest,
		config: config,
		stats:  &Stats{},
		dom:    config.Dom,
		df:     config.DF,
		refs:   ssa.NewRefIndex(f),
	}
	if p.dom == nil {
		p.dom = cfg.BuildDomTree(f)
	}
	if !p.df.Valid() {
		p.df = cfg.BuildDomFrontiers(p.dom)
	}
	if config.PressureBudget > 0 {
		p.extra = make([]int, f.BlockIDBound())
	}
	return p
}

// freq returns the profile frequency of the block containing the given
// instruction insertion point.
func (p *promoter) freq(b *ir.Block) float64 { return p.config.Profile.BlockFreq(b) }

func (p *promoter) promoteInInterval(iv *cfg.Interval) error {
	webs := p.constructSSAWebs(iv)
	if p.config.MaxPromotedWebs > 0 || p.config.PressureBudget > 0 {
		// Under a budget, spend it on the best webs first: by raw profit
		// when only the web count is capped, by profit per unit of
		// pressure cost when a pressure budget is set (a web referenced
		// only in cold blocks is cheap to carry; one spanning the hot
		// loop body is not).
		plans := make(map[*web]*webPlan, len(webs))
		for _, w := range webs {
			plans[w] = p.planWeb(iv, w)
		}
		score := func(w *web) float64 {
			pr := plans[w].profit()
			if p.config.PressureBudget <= 0 {
				return pr
			}
			cost := p.pressureCost(iv, w)
			if cost <= 0 {
				cost = 1
			}
			return pr / cost
		}
		sort.SliceStable(webs, func(i, j int) bool {
			si, sj := score(webs[i]), score(webs[j])
			if si != sj {
				return si > sj
			}
			return plans[webs[i]].profit() > plans[webs[j]].profit()
		})
	}
	for _, w := range webs {
		if err := p.promoteInWeb(iv, w); err != nil {
			return err
		}
	}
	return nil
}

// spanBlocks returns the blocks a web's promoted register is charged
// to: every block referencing the web, plus the interval boundary (the
// preheader holds the canonical load and the header carries the value
// in). Blocks the register merely passes through are not charged — the
// budget is a placement heuristic; PromoteUnderPressure's trial loop
// supplies the hard color guarantee.
func (p *promoter) spanBlocks(iv *cfg.Interval, w *web) []*ir.Block {
	seen := make(map[ir.BlockID]bool)
	var span []*ir.Block
	add := func(b *ir.Block) {
		if b != nil && !seen[b.ID] {
			seen[b.ID] = true
			span = append(span, b)
		}
	}
	if !iv.Root {
		add(iv.Preheader)
		add(iv.Header)
	}
	for _, in := range w.loads {
		add(in.Parent)
	}
	for _, in := range w.stores {
		add(in.Parent)
	}
	for _, r := range w.aliasedLoads {
		add(r.In.Parent)
	}
	for _, r := range w.aliasedDefs {
		add(r.In.Parent)
	}
	for _, in := range w.memPhis {
		add(in.Parent)
	}
	return span
}

// pressureCost is the spill-cost weight of carrying the web in a
// register: profile frequency summed over the span (the static
// estimator's frequency is 10^loop-depth, so this is exactly the
// loop-depth × execution-frequency weight of the classic spill metric).
func (p *promoter) pressureCost(iv *cfg.Interval, w *web) float64 {
	cost := 0.0
	for _, b := range p.spanBlocks(iv, w) {
		cost += p.freq(b)
	}
	return cost
}

// fitsPressure reports whether promoting one more register for w keeps
// every spanned block within the pressure budget.
func (p *promoter) fitsPressure(iv *cfg.Interval, w *web) bool {
	if p.config.PressureBudget <= 0 {
		return true
	}
	for _, b := range p.spanBlocks(iv, w) {
		base := 0
		if int(b.ID) < len(p.config.BlockPressure) {
			base = p.config.BlockPressure[b.ID]
		}
		extra := 0
		if int(b.ID) < len(p.extra) {
			extra = p.extra[b.ID]
		}
		if base+extra+1 > p.config.PressureBudget {
			return false
		}
	}
	return true
}

// chargePressure records w's promoted register against its span.
func (p *promoter) chargePressure(iv *cfg.Interval, w *web) {
	if p.config.PressureBudget <= 0 {
		return
	}
	for _, b := range p.spanBlocks(iv, w) {
		if int(b.ID) < len(p.extra) {
			p.extra[b.ID]++
		}
	}
}

// budgetExhausted reports whether the pressure budget forbids another
// promotion.
func (p *promoter) budgetExhausted() bool {
	return p.config.MaxPromotedWebs > 0 &&
		p.stats.WebsPromoted+p.stats.WebsLoadOnly >= p.config.MaxPromotedWebs
}

// promoteInWeb is the paper's Figure 4.
func (p *promoter) promoteInWeb(iv *cfg.Interval, w *web) error {
	p.stats.WebsConsidered++

	plan := p.planWeb(iv, w)
	if plan.profit() < 0 || p.budgetExhausted() {
		p.stats.WebsRejected++
		// An unpromoted web with references still needs the parent to
		// keep memory valid at the interval boundary.
		p.addDummyLoad(iv, w, plan)
		return nil
	}
	if !p.fitsPressure(iv, w) {
		// Profitable, but its register would push some spanned block
		// over the pressure budget: partially demote — the web stays in
		// memory — rather than blow the cap.
		p.stats.WebsDemoted++
		p.addDummyLoad(iv, w, plan)
		return nil
	}

	if len(w.defsInInterval) == 0 {
		// No definitions: one load in the preheader, every load in the
		// web becomes a copy.
		p.promoteLoadOnlyWeb(iv, w, plan)
		p.stats.WebsPromoted++
		p.chargePressure(iv, w)
		if len(w.aliasedLoads) > 0 {
			p.addDummyLoad(iv, w, plan)
		}
		return nil
	}

	t := &transformer{p: p, iv: iv, w: w, plan: plan, vrMap: make(map[ir.ResourceID]ir.RegID)}
	t.initVRMap()
	t.insertLoadsAtPhiLeaves()
	t.replaceLoadsByCopies()

	if plan.removeStores {
		t.insertStoresForAliasedLoads()
		t.insertStoresAtIntervalTails()
		if err := t.updateSSAAndDeleteStores(); err != nil {
			return err
		}
		p.stats.WebsPromoted++
	} else {
		p.stats.WebsLoadOnly++
	}
	p.chargePressure(iv, w)
	if len(w.aliasedLoads) > 0 {
		p.addDummyLoad(iv, w, plan)
	}
	return nil
}

// promoteLoadOnlyWeb handles the defs == {} branch of Figure 4.
func (p *promoter) promoteLoadOnlyWeb(iv *cfg.Interval, w *web, plan *webPlan) {
	pre := iv.Preheader
	liveIn := plan.liveIn
	t := p.f.NewReg(p.f.BaseOf(liveIn).Name)
	ld := ir.NewInstr(ir.OpLoad, t)
	ld.Loc = p.f.Res(liveIn).Loc
	ld.MemUses = []ir.MemRef{{Res: liveIn}}
	if iv.Root {
		// Whole-function scope: the "preheader" is the entry block
		// itself, and the web's loads may sit anywhere in it — the
		// canonical load must come first to dominate them all.
		pre.InsertAfterPhis(ld)
	} else {
		// The preheader is strictly outside the interval, so its end
		// dominates every block (and hence every load) inside.
		pre.InsertBeforeTerm(ld)
	}
	p.refs.Add(ld)
	p.stats.LoadsInserted++

	for _, ref := range w.loads {
		replaceWithCopy(ref, ir.RegVal(t))
		p.stats.LoadsReplaced++
	}
}

// addDummyLoad leaves the paper's dummy aliased load in the interval
// preheader, referencing the web's live-in resource, so the parent
// interval treats the boundary as an aliased load site. Webs with no
// live-in value (everything they touch is defined inside) need none.
func (p *promoter) addDummyLoad(iv *cfg.Interval, w *web, plan *webPlan) {
	if iv.Root {
		return // no enclosing interval to inform
	}
	if plan.liveIn == ir.NoResource {
		return
	}
	if len(w.loads) == 0 && len(w.stores) == 0 && len(w.aliasedLoads) == 0 {
		return
	}
	dummy := ir.NewInstr(ir.OpDummyLoad, ir.NoReg)
	dummy.MemUses = []ir.MemRef{{Res: plan.liveIn, Aliased: true}}
	iv.Preheader.InsertBeforeTerm(dummy)
	p.refs.Add(dummy)
	p.stats.DummyLoadsAdded++
}

// replaceWithCopy rewrites a load instruction in place into a copy of
// the given value, clearing its memory reference.
func replaceWithCopy(load *ir.Instr, v ir.Value) {
	load.Op = ir.OpCopy
	load.Args = []ir.Value{v}
	load.Loc = ir.MemLoc{}
	load.MemUses = nil
}
