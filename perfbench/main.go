// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time, checks every output against frozen references, and
// prints one JSON line of metrics. See README.md in this directory.
//
//	go run . --workload suite-train --seed 1 --seconds 25 --trace 0
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"
)

const (
	wlSuite    = "suite-train"
	wlGenLarge = "gen-large-static"
	wlServe    = "serve-routed"
)

var workloadNames = []string{wlSuite, wlGenLarge, wlServe}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

func main() {
	wl := flag.String("workload", "", "workload: suite-train, gen-large-static or serve-routed")
	seed := flag.Int64("seed", 1, "seed for program order and request traffic")
	seconds := flag.Int("seconds", 25, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	records := flag.String("records", "perfbench/out", "directory for the full run record")
	freezeDir := flag.String("freeze", "", "regenerate the frozen references into this directory and exit")
	flag.Parse()

	if *freezeDir != "" {
		if err := freeze(*freezeDir); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	o := newOutcome(*wl, *seed, *trace == 1, *seconds)
	rng := rand.New(rand.NewSource(*seed))
	switch *wl {
	case wlSuite, wlGenLarge:
		b, err := timedSetup(o, func() (*batch, error) { return setupBatch(*wl) }, nil)
		if err != nil {
			fatal(err)
		}
		if o.Trace {
			runBatchTraced(o, b, *seconds, rng)
		} else {
			runBatch(o, b, *seconds, rng)
		}
	case wlServe:
		if err := runServe(o, *seconds, *seed, rng); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown workload %q", *wl))
	}
	o.finish()
	if err := o.writeRecord(*records); err != nil {
		fatal(fmt.Errorf("writing record: %w", err))
	}
	line, err := o.summaryLine()
	if err != nil {
		fatal(err)
	}
	for _, p := range o.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	fmt.Println(string(line))
}

// timedSetup runs setup setupRepeats times, records the median as
// setup_s and returns the last result; teardown, when set, releases
// each earlier one.
func timedSetup[T any](o *outcome, setup func() (T, error), teardown func(T)) (T, error) {
	var v T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && teardown != nil {
			teardown(v)
		}
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	o.setSpread("setup_s", times)
	return v, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
