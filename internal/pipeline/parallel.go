package pipeline

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/profile"
)

// workerCount resolves Options.Workers against the machine and the
// number of functions to transform.
func (r *runner) workerCount(nfuncs int) int {
	w := r.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nfuncs {
		w = nfuncs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// transformAll runs the per-function transformation chain over every
// function of after, either sequentially or on a bounded worker pool
// (Options.Workers). Each function's chain is independent — its own
// SSA construction, interval tree, webs, and rollback — so
// the only shared state is program-level bookkeeping, which the
// runner's mutex serializes and finish canonicalizes. The outcome is
// therefore identical for every worker count; only wall time changes.
func (r *runner) transformAll(after *ir.Program, forests map[string]*cfg.Forest, prof *profile.Profile) error {
	// Materialize every function's profile before spawning workers:
	// Profile.ForFunc inserts into the shared map on first use, which
	// must not happen concurrently.
	for _, f := range after.Funcs {
		prof.ForFunc(f.Name)
	}

	workers := r.workerCount(len(after.Funcs))
	if workers == 1 {
		for _, f := range after.Funcs {
			if err := r.transformFunc(after, f, forests[f.Name], prof); err != nil {
				return err
			}
		}
		return nil
	}

	// Shard function indexes across the pool, largest function first.
	// One function usually dominates a program's transform time (a
	// generated program's main, declared last); starting it at once lets
	// the smaller functions overlap with it instead of delaying it, so
	// the run's wall time approaches that one function's chain. Errors
	// (FailFast mode only) are collected per index so the returned error
	// is the one the sequential run would have hit first.
	errs := make([]error, len(after.Funcs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				f := after.Funcs[i]
				errs[i] = r.transformFunc(after, f, forests[f.Name], prof)
			}
		}()
	}
	for _, i := range largestFirst(after.Funcs) {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// largestFirst returns the indexes of funcs in descending instruction
// count, ties in declaration order.
func largestFirst(funcs []*ir.Function) []int {
	size := make([]int, len(funcs))
	order := make([]int, len(funcs))
	for i, f := range funcs {
		for _, b := range f.Blocks {
			size[i] += len(b.Instrs)
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	return order
}

// finish canonicalizes the outcome so that it is bit-identical across
// worker counts and run repetitions: degradations are ordered by
// program declaration order (stage order breaking ties) with at most
// one entry per function, timings are ordered by stage then function,
// and TotalStats is rebuilt from the per-function map.
func (r *runner) finish(after *ir.Program) {
	funcPos := func(name string) int {
		if name == "" {
			return -1 // whole-program entries sort first
		}
		if i := after.FuncIndex(name); i >= 0 {
			return i
		}
		return len(after.Funcs)
	}

	sort.SliceStable(r.out.Degraded, func(i, j int) bool {
		a, b := r.out.Degraded[i], r.out.Degraded[j]
		if pa, pb := funcPos(a.Func), funcPos(b.Func); pa != pb {
			return pa < pb
		}
		return stageIndex(a.Stage) < stageIndex(b.Stage)
	})
	deduped := r.out.Degraded[:0]
	seen := make(map[string]bool, len(r.out.Degraded))
	for _, d := range r.out.Degraded {
		if seen[d.Func] {
			continue // one record per function, earliest stage wins
		}
		seen[d.Func] = true
		deduped = append(deduped, d)
	}
	r.out.Degraded = deduped

	sort.SliceStable(r.out.Timings, func(i, j int) bool {
		a, b := r.out.Timings[i], r.out.Timings[j]
		if sa, sb := stageIndex(a.Stage), stageIndex(b.Stage); sa != sb {
			return sa < sb
		}
		return funcPos(a.Func) < funcPos(b.Func)
	})

	r.recomputeTotals()
}
