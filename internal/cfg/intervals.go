package cfg

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/ir"
)

// Interval is a strongly connected region of the CFG — usually a natural
// loop — in the sense used by the register promotion paper. Intervals
// nest, forming a tree whose root is a pseudo-interval covering the whole
// function body (the root is never itself promoted; it is the outermost
// scope into which inner promotions push their compensation loads and
// stores).
type Interval struct {
	// Header is the representative entry block: the unique entry of a
	// proper interval, or the lowest-RPO entry of an improper one.
	Header *ir.Block
	// Entries lists every block of the interval with a predecessor
	// outside it. Proper intervals have exactly one entry.
	Entries []*ir.Block
	// Blocks holds every block of the interval, including blocks of
	// nested child intervals, in reverse postorder.
	Blocks []*ir.Block
	// Children are the intervals nested immediately inside this one.
	Children []*Interval
	Parent   *Interval
	// Depth is the nesting depth; the root pseudo-interval has depth 0.
	Depth int
	// Root marks the whole-function pseudo-interval.
	Root bool

	// Preheader is the dedicated block that strictly dominates the whole
	// interval, where promotion places its initial loads. It is set by
	// Normalize (nil for the root, whose "preheader" is the entry block
	// itself).
	Preheader *ir.Block
	// ExitEdges lists the edges leaving the interval. After Normalize,
	// every exit edge's target (its "tail") has that edge as its only
	// incoming edge.
	ExitEdges []ExitEdge

	blockSet *bitset.Dense // membership by ir.BlockID
}

// ExitEdge is an edge from a block inside an interval to one outside.
// Tail is the target block, which after normalization is dedicated to
// this edge.
type ExitEdge struct {
	From *ir.Block
	Tail *ir.Block
}

// Proper reports whether the interval has a single entry block.
func (iv *Interval) Proper() bool { return len(iv.Entries) == 1 }

// Contains reports whether b belongs to the interval (including nested
// children).
func (iv *Interval) Contains(b *ir.Block) bool { return iv.blockSet.Has(int(b.ID)) }

// Walk visits the interval and its descendants bottom-up (children
// before parents), the traversal order of the promotion driver.
func (iv *Interval) Walk(visit func(*Interval)) {
	for _, c := range iv.Children {
		c.Walk(visit)
	}
	visit(iv)
}

// Forest is the interval tree of one function.
type Forest struct {
	// Root is the whole-function pseudo-interval.
	Root *Interval
	// innermost[id] is the innermost interval containing the block with
	// that ID (nil for unreachable blocks).
	innermost []*Interval
}

// InnermostInterval returns the innermost interval containing b (the
// root pseudo-interval if b is in no loop, nil if b is unreachable or
// was created after the forest was built).
func (fo *Forest) InnermostInterval(b *ir.Block) *Interval {
	if int(b.ID) >= len(fo.innermost) {
		return nil
	}
	return fo.innermost[b.ID]
}

// BuildIntervals computes the interval forest of f using nested
// strongly-connected-component decomposition: every non-trivial SCC of
// the CFG is an interval; removing its entry blocks and re-running SCC
// inside exposes nested intervals. This handles improper (multi-entry,
// irreducible) regions uniformly.
func BuildIntervals(f *ir.Function) *Forest {
	bound := int(f.BlockIDBound())
	rpo := ReversePostorder(f)
	rpoIdx := make([]int32, bound)
	for i := range rpoIdx {
		rpoIdx[i] = -1
	}
	for i, b := range rpo {
		rpoIdx[b.ID] = int32(i)
	}

	root := &Interval{
		Header:   f.Entry(),
		Entries:  []*ir.Block{f.Entry()},
		Blocks:   rpo,
		Root:     true,
		blockSet: bitset.NewDense(bound),
	}
	for _, b := range rpo {
		root.blockSet.Set(int(b.ID))
	}
	fo := &Forest{Root: root, innermost: make([]*Interval, bound)}
	for _, b := range rpo {
		fo.innermost[b.ID] = root
	}

	scratch := newSCCState(bound)
	var decompose func(parent *Interval, nodes []*ir.Block, inScope *bitset.Dense)
	decompose = func(parent *Interval, nodes []*ir.Block, inScope *bitset.Dense) {
		for _, scc := range scratch.run(nodes, inScope) {
			if len(scc) == 1 && !hasSelfLoop(scc[0]) {
				continue
			}
			iv := newInterval(scc, rpoIdx, bound)
			iv.Parent = parent
			iv.Depth = parent.Depth + 1
			parent.Children = append(parent.Children, iv)
			for _, b := range iv.Blocks {
				fo.innermost[b.ID] = iv
			}
			// Recurse inside, with the entries removed, to find nested
			// intervals.
			inner := bitset.NewDense(bound)
			for _, b := range scc {
				inner.Set(int(b.ID))
			}
			for _, e := range iv.Entries {
				inner.Clear(int(e.ID))
			}
			var innerNodes []*ir.Block
			for _, b := range iv.Blocks {
				if inner.Has(int(b.ID)) {
					innerNodes = append(innerNodes, b)
				}
			}
			decompose(iv, innerNodes, inner)
		}
	}
	decompose(root, rpo, root.blockSet)

	// innermost currently maps to the shallowest; fix by walking down.
	var fixInnermost func(iv *Interval)
	fixInnermost = func(iv *Interval) {
		for _, b := range iv.Blocks {
			if fo.innermost[b.ID].Depth < iv.Depth {
				fo.innermost[b.ID] = iv
			}
		}
		for _, c := range iv.Children {
			fixInnermost(c)
		}
	}
	fixInnermost(root)

	computeExitEdges(root)
	return fo
}

func newInterval(scc []*ir.Block, rpoIdx []int32, bound int) *Interval {
	iv := &Interval{blockSet: bitset.NewDense(bound)}
	for _, b := range scc {
		iv.blockSet.Set(int(b.ID))
	}
	sort.Slice(scc, func(i, j int) bool { return rpoIdx[scc[i].ID] < rpoIdx[scc[j].ID] })
	iv.Blocks = scc
	for _, b := range scc {
		for _, p := range b.Preds {
			if !iv.blockSet.Has(int(p.ID)) {
				iv.Entries = append(iv.Entries, b)
				break
			}
		}
	}
	if len(iv.Entries) == 0 {
		// Degenerate: unreachable cycle; treat lowest-RPO block as entry.
		iv.Entries = []*ir.Block{scc[0]}
	}
	iv.Header = iv.Entries[0]
	return iv
}

func hasSelfLoop(b *ir.Block) bool {
	for _, s := range b.Succs {
		if s == b {
			return true
		}
	}
	return false
}

func computeExitEdges(iv *Interval) {
	for _, c := range iv.Children {
		computeExitEdges(c)
	}
	if iv.Root {
		return
	}
	iv.ExitEdges = iv.ExitEdges[:0]
	for _, b := range iv.Blocks {
		for _, s := range b.Succs {
			if !iv.blockSet.Has(int(s.ID)) {
				iv.ExitEdges = append(iv.ExitEdges, ExitEdge{From: b, Tail: s})
			}
		}
	}
}

// sccState is the reusable scratch state of Tarjan's algorithm, sized
// once per BuildIntervals call and reset (O(nodes visited)) between
// nested runs instead of reallocating maps.
type sccState struct {
	index   []int32 // -1 = unvisited
	low     []int32
	onStack *bitset.Dense
	stack   []*ir.Block
	next    int32
}

func newSCCState(bound int) *sccState {
	s := &sccState{
		index:   make([]int32, bound),
		low:     make([]int32, bound),
		onStack: bitset.NewDense(bound),
	}
	for i := range s.index {
		s.index[i] = -1
	}
	return s
}

// run returns the SCCs of the subgraph induced by nodes (edges
// restricted to inScope) via Tarjan's algorithm, with each SCC's
// members in stack-pop order as in the classic formulation.
func (s *sccState) run(nodes []*ir.Block, inScope *bitset.Dense) [][]*ir.Block {
	// Reset only the entries the previous run touched.
	for _, v := range nodes {
		s.index[v.ID] = -1
		s.onStack.Clear(int(v.ID))
	}
	s.stack = s.stack[:0]
	s.next = 0
	var sccs [][]*ir.Block

	var strong func(v *ir.Block)
	strong = func(v *ir.Block) {
		s.index[v.ID] = s.next
		s.low[v.ID] = s.next
		s.next++
		s.stack = append(s.stack, v)
		s.onStack.Set(int(v.ID))
		for _, w := range v.Succs {
			if !inScope.Has(int(w.ID)) {
				continue
			}
			if s.index[w.ID] < 0 {
				strong(w)
				if s.low[w.ID] < s.low[v.ID] {
					s.low[v.ID] = s.low[w.ID]
				}
			} else if s.onStack.Has(int(w.ID)) && s.index[w.ID] < s.low[v.ID] {
				s.low[v.ID] = s.index[w.ID]
			}
		}
		if s.low[v.ID] == s.index[v.ID] {
			var scc []*ir.Block
			for {
				w := s.stack[len(s.stack)-1]
				s.stack = s.stack[:len(s.stack)-1]
				s.onStack.Clear(int(w.ID))
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if s.index[v.ID] < 0 {
			strong(v)
		}
	}
	return sccs
}
