package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/source"
	"repro/internal/workload"
)

// program is one benchmark input: a named source text in a language the
// pipeline accepts.
type program struct {
	Name string
	Lang string // "" for mini-C, "ll" for textual IR
	Src  string
}

// corpusSpec pins the generated programs a workload runs. The program
// set is fixed per workload; --seed varies the order and the traffic,
// not the programs, because whole-corpus cost differs by about ±20%
// between generator seeds, wider than any bound the benchmark gates on.
type corpusSpec struct {
	Seed  int64  `json:"corpus_seed"`
	Size  string `json:"size"`
	Count int    `json:"count"`
}

// Pinned corpora. Changing one means regenerating the frozen references
// (go run . -freeze from this directory).
var (
	genLargeCorpus = corpusSpec{Seed: 7, Size: "large", Count: 64}
	serveCorpus    = corpusSpec{Seed: 11, Size: "medium", Count: 96}
)

// serveHot is how many of serveCorpus's programs form the warmed hot
// set; the rest are the pool that first-visit (miss) requests draw from.
const serveHot = 32

// generate builds the corpus spec describes, in index order.
func generate(spec corpusSpec) ([]program, error) {
	progs := make([]program, spec.Count)
	for i := range progs {
		w, err := workload.SizedCorpusEntry(spec.Seed, i, spec.Size)
		if err != nil {
			return nil, err
		}
		progs[i] = program{Name: w.Name, Lang: w.Lang, Src: w.Src}
	}
	return progs, nil
}

// suitePrograms is the paper's eight SPECInt95-analogue programs plus
// the imported-IR programs, in table order.
func suitePrograms() []program {
	var progs []program
	for _, w := range append(workload.Suite(), workload.ImportedSuite()...) {
		progs = append(progs, program{Name: w.Name, Lang: w.Lang, Src: w.Src})
	}
	return progs
}

// corpusDigest is the SHA-256 of the corpus in order: name, language
// and source of every program, each length-prefixed.
func corpusDigest(progs []program) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range progs {
		for _, s := range []string{p.Name, p.Lang, p.Src} {
			binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
			h.Write(n[:])
			h.Write([]byte(s))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference is one program's frozen expected behaviour, taken from a
// run of the unpromoted program straight out of the frontend.
type reference struct {
	Name string `json:"name"`
	// Verified is false when the reference run did not complete (it hit
	// the interpreter's step budget); the program still runs in the
	// benchmark but its result cannot be checked and counts as
	// unverified, not failed.
	Verified bool   `json:"verified"`
	Reason   string `json:"reason,omitempty"`
	// Digest covers output, return value and final globals.
	Digest    string `json:"digest,omitempty"`
	DynLoads  int64  `json:"dyn_loads,omitempty"`
	DynStores int64  `json:"dyn_stores,omitempty"`
	Steps     int64  `json:"steps,omitempty"`
}

// frozenSet is one workload's pinned corpus and its references.
type frozenSet struct {
	Workload string      `json:"workload"`
	Corpus   *corpusSpec `json:"corpus,omitempty"`
	Digest   string      `json:"corpus_sha256"`
	Refs     []reference `json:"references"`
}

//go:embed frozen/*.json
var frozenFS embed.FS

// loadFrozen reads the named workload's frozen set.
func loadFrozen(name string) (*frozenSet, error) {
	data, err := frozenFS.ReadFile("frozen/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("frozen references for %s: %w", name, err)
	}
	var fs frozenSet
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, fmt.Errorf("frozen references for %s: %w", name, err)
	}
	return &fs, nil
}

// check fails when progs are not the corpus the references were taken
// from — a change to the generator or the suite must regenerate them,
// not be measured silently.
func (fs *frozenSet) check(progs []program) (map[string]reference, error) {
	if got := corpusDigest(progs); got != fs.Digest {
		return nil, fmt.Errorf("%s: corpus digest %s, frozen %s: the inputs changed; regenerate with -freeze",
			fs.Workload, got, fs.Digest)
	}
	refs := make(map[string]reference, len(fs.Refs))
	for _, r := range fs.Refs {
		refs[r.Name] = r
	}
	for _, p := range progs {
		if _, ok := refs[p.Name]; !ok {
			return nil, fmt.Errorf("%s: no frozen reference for %s", fs.Workload, p.Name)
		}
	}
	return refs, nil
}

// behaviourDigest hashes what a run can observe: printed output, the
// return value and every global's final image in name order.
func behaviourDigest(output []int64, ret int64, globals map[string][]int64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(len(output)))
	for _, v := range output {
		put(v)
	}
	put(ret)
	names := make([]string, 0, len(globals))
	for n := range globals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		put(int64(len(globals[n])))
		for _, v := range globals[n] {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceRun interprets the unpromoted program with the interpreter's
// default budget.
func referenceRun(p program) reference {
	ref := reference{Name: p.Name}
	prog, err := compile(p)
	var res *interp.Result
	if err == nil {
		res, err = interp.Run(prog, interp.Options{})
	}
	if err != nil {
		ref.Reason = err.Error()
		return ref
	}
	ref.Verified = true
	ref.Digest = behaviourDigest(res.Output, res.ReturnValue, res.Globals)
	ref.DynLoads, ref.DynStores, ref.Steps = res.DynLoads(), res.DynStores(), res.Steps
	return ref
}

// compile runs the frontend p's language selects.
func compile(p program) (*ir.Program, error) {
	if p.Lang == irimport.LangIR {
		return irimport.Compile(p.Src)
	}
	return source.Compile(p.Src)
}

// salted returns p with a trailing comment that makes its text — and
// so its serving cache key — unique without changing its meaning.
func salted(p program, salt string) program {
	comment := "// "
	if p.Lang == irimport.LangIR {
		comment = "; "
	}
	var sb strings.Builder
	sb.WriteString(p.Src)
	if !strings.HasSuffix(p.Src, "\n") {
		sb.WriteByte('\n')
	}
	sb.WriteString(comment + "visit " + salt + "\n")
	p.Src = sb.String()
	return p
}
