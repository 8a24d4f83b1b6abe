package cfg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

// randomCFG builds a random connected CFG with n blocks from a seed:
// block 0 is the entry, every other block gets an edge from some lower-
// numbered block (connectivity), plus extra random edges (including
// back edges, which create loops and irreducible regions).
func randomCFG(seed int64, n int) *ir.Function {
	rng := rand.New(rand.NewSource(seed))
	p := ir.NewProgram()
	f := ir.NewFunction(p, "rand")
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	type edge struct{ from, to int }
	var edges []edge
	seen := map[edge]bool{}
	add := func(from, to int) {
		e := edge{from, to}
		// The entry block may not have predecessors (an IR invariant
		// the frontend guarantees and ir.Verify enforces).
		if from == to || to == 0 || seen[e] || len(blocks[from].Succs) >= 2 {
			return
		}
		seen[e] = true
		edges = append(edges, e)
		ir.AddEdge(blocks[from], blocks[to])
	}
	for i := 1; i < n; i++ {
		add(rng.Intn(i), i)
	}
	extra := rng.Intn(n + 1)
	for i := 0; i < extra; i++ {
		add(rng.Intn(n), 1+rng.Intn(n-1))
	}
	for _, b := range blocks {
		switch len(b.Succs) {
		case 0:
			b.Append(ir.NewInstr(ir.OpRet, ir.NoReg))
		case 1:
			b.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
		default:
			c := f.NewReg("c")
			b.Append(ir.NewInstr(ir.OpCopy, c, ir.ConstVal(1)))
			b.Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(c)))
		}
	}
	return f
}

// TestQuickDominatorInvariants checks, on random CFGs, the defining
// properties of dominator trees: the entry dominates every reachable
// block, idom strictly dominates its children, depth is parent+1, and
// LCA is the deepest common dominator.
func TestQuickDominatorInvariants(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomCFG(seed, 3+rng.Intn(14))
		RemoveUnreachable(f)
		dom := BuildDomTree(f)
		entry := f.Entry()
		for _, b := range dom.RPO() {
			if !dom.Dominates(entry, b) {
				t.Logf("seed %d: entry does not dominate %v", seed, b)
				return false
			}
			if b != entry {
				id := dom.Idom(b)
				if id == nil || !dom.StrictlyDominates(id, b) {
					t.Logf("seed %d: idom(%v)=%v not strict dominator", seed, b, id)
					return false
				}
				if dom.Depth(b) != dom.Depth(id)+1 {
					t.Logf("seed %d: depth(%v) != depth(idom)+1", seed, b)
					return false
				}
				// Every predecessor path must pass through idom: no
				// reachable predecessor may bypass it except via b
				// itself... weaker check: idom dominates every
				// reachable predecessor or equals entry.
				for _, p := range b.Preds {
					if dom.RPOIndex(p) < 0 {
						continue
					}
					if !dom.Dominates(id, p) && !dom.Dominates(b, p) {
						t.Logf("seed %d: idom(%v) does not cover pred %v", seed, b, p)
						return false
					}
				}
			}
		}
		// LCA properties: symmetric, dominates both sides, and is the
		// deepest such block among sampled candidates.
		blocks := dom.RPO()
		for i := 0; i < 10; i++ {
			a := blocks[rng.Intn(len(blocks))]
			b := blocks[rng.Intn(len(blocks))]
			l := dom.LCA(a, b)
			if l != dom.LCA(b, a) {
				return false
			}
			if !dom.Dominates(l, a) || !dom.Dominates(l, b) {
				return false
			}
			for _, c := range blocks {
				if dom.Dominates(c, a) && dom.Dominates(c, b) && dom.Depth(c) > dom.Depth(l) {
					t.Logf("seed %d: %v is a deeper common dominator than LCA %v", seed, c, l)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDominanceFrontierDefinition verifies DF against its
// definition on random CFGs: b is in DF(a) iff a dominates some
// predecessor of b but does not strictly dominate b.
func TestQuickDominanceFrontierDefinition(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomCFG(seed, 3+rng.Intn(12))
		RemoveUnreachable(f)
		dom := BuildDomTree(f)
		df := BuildDomFrontiers(dom)

		inDF := func(a, b *ir.Block) bool {
			for _, x := range df.Of(a) {
				if x == b {
					return true
				}
			}
			return false
		}
		for _, a := range dom.RPO() {
			for _, b := range dom.RPO() {
				want := false
				for _, p := range b.Preds {
					if dom.RPOIndex(p) >= 0 && dom.Dominates(a, p) && !dom.StrictlyDominates(a, b) {
						want = true
					}
				}
				if got := inDF(a, b); got != want {
					t.Logf("seed %d: DF(%v) contains %v = %v, want %v", seed, a, b, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIntervalInvariants checks interval forest properties on
// random CFGs: intervals partition into a tree, every block maps to its
// innermost interval, entries have outside predecessors, and interval
// blocks are strongly connected through the interval.
func TestQuickIntervalInvariants(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomCFG(seed, 3+rng.Intn(14))
		RemoveUnreachable(f)
		fo := BuildIntervals(f)

		ok := true
		fo.Root.Walk(func(iv *Interval) {
			if iv.Root {
				return
			}
			// Nesting: every block of iv is in its parent.
			for _, b := range iv.Blocks {
				if !iv.Parent.Contains(b) {
					t.Logf("seed %d: block %v of depth-%d interval missing from parent", seed, b, iv.Depth)
					ok = false
				}
			}
			// Entries have a predecessor outside the interval.
			for _, e := range iv.Entries {
				outside := false
				for _, p := range e.Preds {
					if !iv.Contains(p) {
						outside = true
					}
				}
				if !outside {
					t.Logf("seed %d: entry %v has no outside predecessor", seed, e)
					ok = false
				}
			}
			// Depth consistency.
			if iv.Depth != iv.Parent.Depth+1 {
				t.Logf("seed %d: bad depth", seed)
				ok = false
			}
			// Innermost mapping agrees with Contains.
			for _, b := range iv.Blocks {
				inner := fo.InnermostInterval(b)
				if !inner.Contains(b) {
					ok = false
				}
				if inner.Depth < iv.Depth {
					t.Logf("seed %d: innermost(%v) shallower than containing interval", seed, b)
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNormalizePostconditions: after Normalize, every proper
// interval has a dedicated preheader and every exit edge a dedicated
// tail, on random CFGs.
func TestQuickNormalizePostconditions(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomCFG(seed, 3+rng.Intn(14))
		fo, err := Normalize(f)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := f.Verify(ir.VerifyCFG); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ok := true
		fo.Root.Walk(func(iv *Interval) {
			if iv.Root {
				return
			}
			if iv.Preheader == nil {
				t.Logf("seed %d: interval without preheader", seed)
				ok = false
				return
			}
			if iv.Proper() {
				if iv.Contains(iv.Preheader) || len(iv.Preheader.Succs) != 1 {
					t.Logf("seed %d: preheader not dedicated", seed)
					ok = false
				}
			}
			for _, e := range iv.ExitEdges {
				if len(e.Tail.Preds) != 1 {
					t.Logf("seed %d: tail %v shared (%d preds)", seed, e.Tail, len(e.Tail.Preds))
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
