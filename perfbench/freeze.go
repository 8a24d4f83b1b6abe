package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// workloadInputs returns a workload's programs and, for generated
// corpora, the spec that produced them.
func workloadInputs(name string) ([]program, *corpusSpec, error) {
	switch name {
	case wlSuite:
		return suitePrograms(), nil, nil
	case wlGenLarge:
		progs, err := generate(genLargeCorpus)
		return progs, &genLargeCorpus, err
	case wlServe:
		progs, err := generate(serveCorpus)
		return progs, &serveCorpus, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q", name)
}

// freeze regenerates every workload's frozen corpus digest and
// per-program references into dir.
func freeze(dir string) error {
	for _, name := range workloadNames {
		progs, spec, err := workloadInputs(name)
		if err != nil {
			return err
		}
		fs := frozenSet{Workload: name, Corpus: spec, Digest: corpusDigest(progs)}
		unverified := 0
		for _, p := range progs {
			ref := referenceRun(p)
			if !ref.Verified {
				unverified++
			}
			fs.Refs = append(fs.Refs, ref)
		}
		data, err := json.MarshalIndent(fs, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "froze %s: %d programs, %d unverified\n", path, len(progs), unverified)
	}
	return nil
}
