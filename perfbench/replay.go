package main

import (
	"fmt"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/ssa"
)

// replayed is what the traced replay produced for one program.
type replayed struct {
	staticBefore, staticAfter pipeline.StaticCounts
	before, after             *interp.Result
	stats                     map[string]*core.Stats
	total                     core.Stats
	steps                     int64
	interpRuns                int
}

// drive runs the pipeline's default chain for p through the modules'
// public functions, one span per call: compile, alias, normalize, the
// training run and the measurement of the unpromoted program (or the
// static estimate), then a second compile whose functions go through
// SSA construction, promotion and destruction before the promoted
// program is measured. It mirrors pipeline.Run with zero Options apart
// from Lang (and StaticProfile+SkipMeasurement when static);
// matches checks that it still does.
func replay(p program, static bool, tr *tracer) (*replayed, error) {
	root := tr.begin("program")
	defer tr.end(root)
	d := &replayed{stats: make(map[string]*core.Stats)}

	before, forests, err := driveFrontend(p, tr)
	if err != nil {
		return nil, err
	}
	d.staticBefore = countStatic(before)

	prof := profile.NewProfile()
	if static {
		sp := tr.begin("profile.estimate")
		for _, f := range before.Funcs {
			prof.Funcs[f.Name] = profile.Estimate(f, forests[f.Name])
		}
		tr.end(sp)
	} else {
		sp := tr.begin("interp.train")
		res, err := interp.Run(before, interp.Options{CollectProfile: true})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("training run: %w", err)
		}
		prof = res.Profile
		if d.before, err = d.measure(before, tr); err != nil {
			return nil, err
		}
		d.steps += res.Steps
		d.interpRuns++
	}

	after, forests, err := driveFrontend(p, tr)
	if err != nil {
		return nil, err
	}
	for _, f := range after.Funcs {
		st, err := drivePromote(f, forests[f.Name], prof.ForFunc(f.Name), tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		d.stats[f.Name] = st
		d.total.Add(*st)
	}
	if !static {
		if d.after, err = d.measure(after, tr); err != nil {
			return nil, err
		}
	}
	d.staticAfter = countStatic(after)
	return d, nil
}

// measure interprets prog under an interp.measure span.
func (d *replayed) measure(prog *ir.Program, tr *tracer) (*interp.Result, error) {
	sp := tr.begin("interp.measure")
	res, err := interp.Run(prog, interp.Options{})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("measurement run: %w", err)
	}
	d.steps += res.Steps
	d.interpRuns++
	return res, nil
}

// driveFrontend compiles, alias-analyzes and normalizes p.
func driveFrontend(p program, tr *tracer) (*ir.Program, map[string]*cfg.Forest, error) {
	name := "source.compile"
	if p.Lang == irimport.LangIR {
		name = "irimport.compile"
	}
	sp := tr.begin(name)
	prog, err := compile(p)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("alias.analyze")
	err = alias.Analyze(prog)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	forests := make(map[string]*cfg.Forest, len(prog.Funcs))
	for _, f := range prog.Funcs {
		sp = tr.begin("cfg.normalize")
		forest, err := cfg.Normalize(f)
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		forests[f.Name] = forest
	}
	return prog, forests, nil
}

// drivePromote is the per-function chain: SSA construction (with the
// dominator analyses it needs), promotion, destruction, verification.
func drivePromote(f *ir.Function, forest *cfg.Forest, fp *profile.FuncProfile, tr *tracer) (*core.Stats, error) {
	sp := tr.begin("ssa.build")
	cfg.RemoveUnreachable(f)
	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	version := f.CFGVersion()
	err := ssa.BuildWith(f, dom, df)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("core.promote")
	if f.CFGVersion() != version {
		dom = cfg.BuildDomTree(f)
		df = cfg.BuildDomFrontiers(dom)
	}
	st, err := core.PromoteFunction(f, forest, core.Config{
		Profile:         fp,
		Scope:           core.ScopeIntervals,
		CountTailStores: true,
		Dom:             dom,
		DF:              df,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("ssa.destruct")
	ssa.Destruct(f)
	tr.end(sp)

	sp = tr.begin("ir.verify")
	err = f.Verify(ir.VerifyCFG)
	tr.end(sp)
	return st, err
}

// countStatic counts singleton loads and stores, as pipeline.Run does
// for Outcome.StaticBefore/StaticAfter.
func countStatic(prog *ir.Program) pipeline.StaticCounts {
	var c pipeline.StaticCounts
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpLoad:
					c.Loads++
				case ir.OpStore:
					c.Stores++
				}
			}
		}
	}
	return c
}

// matches reports the first way the replay's results differ from the
// pipeline's outcome: static counts, dynamic counts and behaviour of
// both measurement runs, and per-function promotion statistics.
func (d *replayed) matches(out *pipeline.Outcome) error {
	if d.staticBefore != out.StaticBefore || d.staticAfter != out.StaticAfter {
		return fmt.Errorf("static counts %v -> %v, pipeline %v -> %v",
			d.staticBefore, d.staticAfter, out.StaticBefore, out.StaticAfter)
	}
	if b, pb := countsOf(d.before), countsOf(out.Before); b != pb {
		return fmt.Errorf("unpromoted run %+v, pipeline %+v", b, pb)
	}
	if a, pa := countsOf(d.after), countsOf(out.After); a != pa {
		return fmt.Errorf("promoted run %+v, pipeline %+v", a, pa)
	}
	if len(d.stats) != len(out.Stats) {
		return fmt.Errorf("promotion stats for %d functions, pipeline %d", len(d.stats), len(out.Stats))
	}
	for name, st := range d.stats {
		ps, ok := out.Stats[name]
		if !ok || *ps != *st {
			return fmt.Errorf("%s: promotion stats %+v, pipeline %+v", name, *st, ps)
		}
	}
	return nil
}
