package pipeline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// rollbackDigest pins what every rollback path leaves behind on the
// suite and imported-suite programs: the transformed IR, Report() and
// DegradedFuncs() (or the error, when the fault fails the run) for a
// fault at each rollback-triggering stage, with and without the
// paranoid differential. Degrading a function puts its unpromoted IR
// back into the program, so this digest changes exactly when a rolled
// back function differs from the one the frontend produced.
const rollbackDigest = "de156b7a64164cd17b156a4d7963f7a674aaa124eec6a4df3aebe2e3f1f3a139"

// rollbackStages are the stages whose failure rolls a function back:
// the per-function chain and the two whole-program stages that bisect
// for a culprit.
var rollbackStages = []string{
	pipeline.StageNormalize, pipeline.StageSSABuild, pipeline.StagePromote,
	pipeline.StageDestruct, pipeline.StageVerify, pipeline.StageMeasureAfter,
	pipeline.StageDifferential,
}

// TestRollbackIdentity drives a fault through every rollback path on
// every suite program at one worker, once firing on the first site
// only (one function degrades, the rest are promoted) and once on
// every site, and compares the digest of the results with the pinned
// one.
func TestRollbackIdentity(t *testing.T) {
	h := sha256.New()
	progs := append(workload.Suite(), workload.ImportedSuite()...)
	for _, w := range progs {
		for _, stage := range rollbackStages {
			for _, check := range []pipeline.CheckLevel{pipeline.CheckOff, pipeline.CheckParanoid} {
				for _, plan := range []faults.Plan{
					{Stage: stage, Mode: faults.ModeError, Count: 1},
					{Stage: stage, Mode: faults.ModePanic},
				} {
					out, err := pipeline.Run(w.Src, pipeline.Options{
						Lang:    w.Lang,
						Check:   check,
						Workers: 1,
						Faults:  faults.New(plan),
					})
					fmt.Fprintf(h, "== %s %s %v count=%d\n", w.Name, stage, check, plan.Count)
					if err != nil {
						fmt.Fprintf(h, "error: %v\n", err)
						continue
					}
					fmt.Fprintf(h, "%s%s%s\n", out.Prog.String(), out.Report(),
						strings.Join(out.DegradedFuncs(), ","))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rollbackDigest {
		t.Errorf("rollback digest %s, want %s", got, rollbackDigest)
	}
}
