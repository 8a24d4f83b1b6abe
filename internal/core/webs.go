package core

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/ssa"
)

// web is one memory SSA web inside an interval, with the reference sets
// of section 4.2 of the paper.
type web struct {
	base ir.ResourceID // base resource all versions rename
	// resources lists the web's versions in ascending order; the first
	// is the union-find root that orders webs.
	resources []ir.ResourceID

	// Reference sets, all restricted to the interval.
	loads        []*ir.Instr   // singleton loads (OpLoad)
	stores       []*ir.Instr   // singleton stores (OpStore)
	aliasedLoads []ssa.RefSite // aliased uses: calls, pointer ops, dummies
	aliasedDefs  []ssa.RefSite // aliased defs: calls, pointer stores
	memPhis      []*ir.Instr   // memphi instructions of the web

	// defsInInterval maps the web resources defined inside the interval
	// (by any kind of definition) to their definitions; nil while there
	// are none.
	defsInInterval map[ir.ResourceID]*ir.Instr
}

// webTables is constructSSAWebs' scratch space, kept by the promoter
// across intervals. Both tables are indexed by resource; only the
// entries of resources in touched are set, and they are reset before
// constructSSAWebs returns, so its cost stays proportional to the
// interval rather than to the function's resource count.
type webTables struct {
	parent  []ir.ResourceID // union-find parent; NoResource when unset
	webOf   []int32         // root -> 1 + index of its web; 0 when unset
	touched []ir.ResourceID
}

// constructSSAWebs partitions the promotable resource versions
// referenced in the interval into webs: the union-find pass of the
// paper's Figure 3, seeded with every referenced resource and unioned
// across each memphi's target and operands. Webs come out in ascending
// order of their smallest resource.
func (p *promoter) constructSSAWebs(iv *cfg.Interval) []*web {
	t := &p.webTables
	for len(t.parent) < len(p.f.Resources) {
		t.parent = append(t.parent, ir.NoResource)
		t.webOf = append(t.webOf, 0)
	}
	parent, webOf := t.parent, t.webOf
	defer func() {
		for _, r := range t.touched {
			parent[r] = ir.NoResource
			webOf[r] = 0
		}
		t.touched = t.touched[:0]
	}()

	find := func(r ir.ResourceID) ir.ResourceID {
		root := r
		for parent[root] != root {
			root = parent[root]
		}
		for parent[r] != root {
			parent[r], r = root, parent[r]
		}
		return root
	}
	add := func(r ir.ResourceID) {
		if parent[r] == ir.NoResource {
			parent[r] = r
			t.touched = append(t.touched, r)
		}
	}
	// union keeps the smaller root, so every root is the smallest
	// member of its set.
	union := func(a, b ir.ResourceID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	promotable := func(r ir.ResourceID) bool { return p.f.BaseOf(r).Promotable() }

	// Seed with every promotable resource referenced in the interval,
	// then union across phi connections.
	for _, b := range iv.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.MemDefs {
				if promotable(d.Res) {
					add(d.Res)
				}
			}
			for _, u := range in.MemUses {
				if promotable(u.Res) {
					add(u.Res)
				}
			}
		}
	}
	for _, b := range iv.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpMemPhi || !promotable(in.MemDefs[0].Res) {
				continue
			}
			target := in.MemDefs[0].Res
			for _, u := range in.MemUses {
				union(target, u.Res)
			}
		}
	}

	// Group into webs, in ascending root order.
	slices.Sort(t.touched)
	var webs []*web
	for _, r := range t.touched {
		root := find(r)
		if webOf[root] == 0 {
			webs = append(webs, &web{base: p.f.BaseOf(r).ID})
			webOf[root] = int32(len(webs))
		}
		w := webs[webOf[root]-1]
		w.resources = append(w.resources, r)
	}
	webOfRes := func(r ir.ResourceID) *web { return webs[webOf[find(r)]-1] }

	// Collect reference sets in one scan (the paper's single pass over
	// the interval's instructions).
	for _, b := range iv.Blocks {
		for _, in := range b.Instrs {
			for i := range in.MemDefs {
				r := in.MemDefs[i].Res
				if !promotable(r) {
					continue
				}
				w := webOfRes(r)
				if w.defsInInterval == nil {
					w.defsInInterval = make(map[ir.ResourceID]*ir.Instr)
				}
				w.defsInInterval[r] = in
				switch {
				case in.Op == ir.OpMemPhi:
					w.memPhis = append(w.memPhis, in)
				case in.Op == ir.OpStore:
					w.stores = append(w.stores, in)
				default:
					w.aliasedDefs = append(w.aliasedDefs, ssa.RefSite{In: in, Def: true, Idx: i})
				}
			}
			for i := range in.MemUses {
				r := in.MemUses[i].Res
				if !promotable(r) {
					continue
				}
				w := webOfRes(r)
				switch in.Op {
				case ir.OpMemPhi:
					// phi operands are web structure, not references
				case ir.OpLoad:
					w.loads = append(w.loads, in)
				default:
					w.aliasedLoads = append(w.aliasedLoads, ssa.RefSite{In: in, Idx: i})
				}
			}
		}
	}
	return webs
}

// webPlan holds the placement and profitability analysis of section 4.3:
// the loads-added and stores-added sets, the live-in and live-out
// resources, and the profit components.
type webPlan struct {
	liveIn ir.ResourceID // version valid on interval entry (NoResource if none)

	// definedByStore and definedByPhi classify the web versions defined
	// inside the interval by a direct store or by one of the web's
	// memphis (mapped to that phi).
	definedByStore map[ir.ResourceID]bool
	definedByPhi   map[ir.ResourceID]*ir.Instr

	// loadsAdded maps each insertion point to the resource to load
	// before it (the paper's loads-added pairs (x, i)).
	loadsAdded []plannedRef
	// storesAdded lists the (x, i) pairs for compensation stores before
	// aliased loads and at phi-leaf edges.
	storesAdded []plannedRef
	// tailStores lists the interval tail insertions: the live-out
	// resource per exit edge.
	tailStores []tailStore

	loadProfit   float64
	storeProfit  float64
	removeStores bool
}

type plannedRef struct {
	res ir.ResourceID
	at  *ir.Instr // insert immediately before this instruction
}

type tailStore struct {
	res  ir.ResourceID
	tail *ir.Block
}

func (pl *webPlan) profit() float64 {
	if pl.removeStores {
		return pl.loadProfit + pl.storeProfit
	}
	return pl.loadProfit
}

// planWeb computes the analysis of section 4.3 for one web.
func (p *promoter) planWeb(iv *cfg.Interval, w *web) *webPlan {
	definedByStore := make(map[ir.ResourceID]bool, len(w.stores))
	for _, st := range w.stores {
		definedByStore[st.MemDefs[0].Res] = true
	}
	definedByPhi := make(map[ir.ResourceID]*ir.Instr, len(w.memPhis))
	for _, phi := range w.memPhis {
		definedByPhi[phi.MemDefs[0].Res] = phi
	}
	pl := &webPlan{liveIn: findLiveIn(w), definedByStore: definedByStore, definedByPhi: definedByPhi}

	// loads-added: for each phi operand x:L that is a leaf (not defined
	// by a web phi) and not defined by a web store, a load of x at the
	// end of block L.
	seenLoad := make(map[plannedRef]bool)
	for _, phi := range w.memPhis {
		blk := phi.Parent
		for i, u := range phi.MemUses {
			x := u.Res
			if definedByPhi[x] != nil || definedByStore[x] {
				continue
			}
			at := blk.Preds[i].Term()
			ref := plannedRef{res: x, at: at}
			if !seenLoad[ref] {
				seenLoad[ref] = true
				pl.loadsAdded = append(pl.loadsAdded, ref)
			}
		}
	}

	// stores-added. First find every web resource an aliased load
	// depends on, transitively through phis.
	depends := make(map[ir.ResourceID]bool)
	var mark func(r ir.ResourceID)
	mark = func(r ir.ResourceID) {
		if depends[r] {
			return
		}
		depends[r] = true
		if phi := definedByPhi[r]; phi != nil {
			for _, u := range phi.MemUses {
				mark(u.Res)
			}
		}
	}
	for _, al := range w.aliasedLoads {
		mark(al.Res())
	}
	seenStore := make(map[plannedRef]bool)
	addStore := func(ref plannedRef) {
		if !seenStore[ref] {
			seenStore[ref] = true
			pl.storesAdded = append(pl.storesAdded, ref)
		}
	}
	// Case 1: store-defined phi operands x:L on paths feeding an
	// aliased load get a store at the end of L.
	for _, phi := range w.memPhis {
		if !depends[phi.MemDefs[0].Res] {
			continue
		}
		blk := phi.Parent
		for i, u := range phi.MemUses {
			if definedByStore[u.Res] {
				addStore(plannedRef{res: u.Res, at: blk.Preds[i].Term()})
			}
		}
	}
	// Case 2: an aliased load directly using a store-defined resource
	// gets a store immediately before it.
	for _, al := range w.aliasedLoads {
		if definedByStore[al.Res()] {
			addStore(plannedRef{res: al.Res(), at: al.In})
		}
	}
	pl.storesAdded = p.pruneDominatedStores(pl.storesAdded)

	// Interval tail stores: per exit edge, the reaching web definition;
	// a store is needed when it is a store- or phi-defined version with
	// uses outside the interval.
	var exits []tailStore
	for _, e := range iv.ExitEdges {
		r := p.reachingWebDefAt(iv, w, e.From)
		if definedByStore[r] || definedByPhi[r] != nil {
			exits = append(exits, tailStore{res: r, tail: e.Tail})
		}
	}
	if len(exits) > 0 {
		liveOut := p.liveOutResources(iv, w, exits)
		for _, ts := range exits {
			if liveOut[ts.res] {
				pl.tailStores = append(pl.tailStores, ts)
			}
		}
	}

	// Profit (section 4.3). Replaceable loads are those whose resource
	// is defined by a web phi or store.
	for _, ld := range w.loads {
		x := ld.MemUses[0].Res
		if definedByPhi[x] != nil || definedByStore[x] {
			pl.loadProfit += p.freq(ld.Parent)
		}
	}
	if len(w.defsInInterval) == 0 {
		// Whole-web load promotion: all loads become copies at the cost
		// of one preheader load.
		pl.loadProfit = 0
		for _, ld := range w.loads {
			pl.loadProfit += p.freq(ld.Parent)
		}
		pl.loadProfit -= p.freq(iv.Preheader)
		pl.removeStores = false
		return pl
	}
	for _, ref := range pl.loadsAdded {
		pl.loadProfit -= p.freq(ref.at.Parent)
	}
	for _, st := range w.stores {
		pl.storeProfit += p.freq(st.Parent)
	}
	for _, ref := range pl.storesAdded {
		pl.storeProfit -= p.freq(ref.at.Parent)
	}
	if p.config.CountTailStores {
		for _, ts := range pl.tailStores {
			pl.storeProfit -= p.freq(ts.tail)
		}
	}
	pl.removeStores = len(w.stores) > 0 && pl.storeProfit >= 0
	return pl
}

// pruneDominatedStores drops (x, j) when (x, i) exists and i dominates
// j, the paper's redundancy rule.
func (p *promoter) pruneDominatedStores(refs []plannedRef) []plannedRef {
	// Each insertion point's position in its block, found once.
	pos := make([]int, len(refs))
	for i, r := range refs {
		for k, x := range r.at.Parent.Instrs {
			if x == r.at {
				pos[i] = k
				break
			}
		}
	}
	dominates := func(a, b int) bool {
		ba, bb := refs[a].at.Parent, refs[b].at.Parent
		if ba == bb {
			return pos[a] < pos[b]
		}
		return p.dom.Dominates(ba, bb)
	}
	var kept []plannedRef
	for i, r := range refs {
		dominated := false
		for j, q := range refs {
			if i == j || q.res != r.res {
				continue
			}
			if dominates(j, i) && !(dominates(i, j) && j > i) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, r)
		}
	}
	return kept
}

// findLiveIn returns the web's live-in resource: the version used
// inside the interval but defined outside it (or never defined, i.e.
// version 0), the smallest ID should several qualify. NoResource if the
// web has none.
func findLiveIn(w *web) ir.ResourceID {
	for _, r := range w.resources {
		if _, inside := w.defsInInterval[r]; !inside {
			return r
		}
	}
	return ir.NoResource
}

// liveOutResources reports which of the exits' reaching versions —
// versions defined inside the interval by a web store or phi — have
// uses outside the interval. Every such use references the web's base,
// so only the base's sites are visited.
func (p *promoter) liveOutResources(iv *cfg.Interval, w *web, exits []tailStore) map[ir.ResourceID]bool {
	out := make(map[ir.ResourceID]bool, len(exits))
	for _, site := range p.refs.Sites(w.base) {
		if site.Def || iv.Contains(site.In.Parent) {
			continue
		}
		r := site.Res()
		for _, ts := range exits {
			if ts.res == r {
				out[r] = true
				break
			}
		}
	}
	return out
}

// reachingWebDefAt finds the web version of the base live at the end of
// the given block: the nearest definition of the base scanning backward
// through the block and up the dominator tree. Returns NoResource when
// the reaching version does not belong to this web (another web of the
// same base, or a version from outside the interval).
func (p *promoter) reachingWebDefAt(iv *cfg.Interval, w *web, blk *ir.Block) ir.ResourceID {
	for b := blk; b != nil; {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			for _, d := range b.Instrs[i].MemDefs {
				if p.f.BaseOf(d.Res).ID == w.base {
					if w.defsInInterval[d.Res] != nil {
						return d.Res
					}
					return ir.NoResource
				}
			}
		}
		next := p.dom.Idom(b)
		if next == nil || next == b {
			return ir.NoResource
		}
		b = next
	}
	return ir.NoResource
}
