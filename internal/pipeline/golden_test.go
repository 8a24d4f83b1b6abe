package pipeline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/workload"
)

// goldenDigest pins one program's promoted IR and Outcome JSON.
type goldenDigest struct {
	ir, outcome string
}

// goldenLarge pins the five largest programs of the generated large
// corpus (seed 7), compiled with a static profile and no measurement —
// the inputs on which promotion itself dominates the pipeline's time.
var goldenLarge = map[int]goldenDigest{
	5: {
		"7cd1b4e1ea7159743516a53f9e5acb8bb9f4714d8d554923d3c97e77390bb782",
		"9a7c75008c98b3a2607850f160fb496f8f318f122c7760d5f870d5df764dcd49",
	},
	6: {
		"aece38fba1d2c3b04fb75fe9fd8bd2bdfd733923b1faa876cf0c6837cc47c19e",
		"27a19c8915468f89875a6d63c8dd82a2ec19a0f37c83a6a0eef6d9e508bfb83e",
	},
	43: {
		"e248ce20c5efbba122e62b8f33d9bda9de362b64a1b57ee888fbad3e9867c204",
		"757877e5ffb5687406a31026ffbafeef228d4d3bd6e3506b95e32951bec97ea3",
	},
	48: {
		"49acf1f34828e74c1b75ec9bf0ecc674e98b36f78bbebdc7d12a5ae205e3da02",
		"620788ebc2c2fb9d6435d5dd9405fba1b4e14dfd61a464a40a2ac0660227e2ed",
	},
	56: {
		"8711ea43951acdd3807060d4c6782aafc40a86b9c5a917891ff612a8400f581b",
		"fcfda63f263a986479ea63f0ef3114d61585fad51bba2d9dc48128d54337d789",
	},
}

// goldenSuite pins the suite and imported-suite programs in the
// pipeline's default mode (training run, measurement, differential).
var goldenSuite = map[string]goldenDigest{
	"go": {
		"ce4178556450a137f15a0cdaaa6b50ee8b8c06155e2bf0f49c61742bacf4e685",
		"c8760243f474ec8f2f36c7c2421183b11b1dc39ee9f3849b8d080a95cec9fd21",
	},
	"li": {
		"3b629bb7fa988a0871caa5ef3c3a319fde06cd15728d9a47c9b88d1e99f46e64",
		"a12ef5485feb6ef099112e495ed8bdc0b8092eb3fa62ffa5a2639625b8843b99",
	},
	"ijpeg": {
		"c170ccfb858e6ed97d753c28b2d75a4c5b8769d53ad3b301e1bd5d4e27eb37c9",
		"5c3dfa4b0017b971614dca9c07fd6282a8cf4c61ba7a0e0872c0f0633939f18d",
	},
	"perl": {
		"b0c338b4bb3d37c4b5397be967d0b8d8a5d3c8a7583190ca92dc303a752ae3e6",
		"93f3ee748b0d0d6831eb46687b85029740350b3c6757a046119a2781c1fcf884",
	},
	"m88ksim": {
		"4f467a3351429de6b025568d5fa13a6b04ea69cf41ffcda9e1ef5ad960537a18",
		"e7d1db87a0f9aee907cb972a1eb5520231ddd4ea9d591cd02619f804f58e17b7",
	},
	"sc": {
		"e693e637a1e2e97aab110f304049a90844aacd705221a88fd715ddfbe80161e0",
		"a913609e09dcdd501f56314ec1350d2b89077ba299e4130ff460e55aa9fbac52",
	},
	"compress": {
		"de75252f24d46f8a8f821ba4d36a93eee5f6061e8eb595928d7c63e2c8ea6ea3",
		"e8ce57165253ca309b227378de36ebf4c39c48269e913d1da8ba8ddcdba33449",
	},
	"vortex": {
		"6232c1e312a5c33b87eb743966ab6f848da9fe22df64dd0009ac39aed4caac75",
		"277758f6ff5c270a5b650ee62a57e2ee80b6626f185e288d14040a55ca2f2e5c",
	},
	"ir-dotprod": {
		"abbd2664947447ba67276f69f4798bf005bed6f270dbac2cc8d08db536c27942",
		"051f0f08dbbf23b25d2f689495a99abec0459fec87f018a2db80974c08eb6799",
	},
	"ir-histo": {
		"6c56ae86930d6f7bff67853f3d3b78411f753af4975c30405a69eaaa90fe9c8f",
		"d14727c3934872072739b938d63919a55d091e9255530ac75c7bd77b0aa36f4b",
	},
	"ir-chain": {
		"f4c783df0953dd72c352d9cb367c05996df91bc267fc87e6fb2f2d99f689e43d",
		"2f5a6e3a99133d2a184e0a9bd58aa778b559d2fe27c7ac85368c0b6721f483e9",
	},
}

func digestOutcome(t *testing.T, name, src string, opts pipeline.Options) goldenDigest {
	t.Helper()
	out, err := pipeline.Run(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	js, err := json.Marshal(report.EncodeOutcome(out))
	if err != nil {
		t.Fatalf("%s: encode outcome: %v", name, err)
	}
	irSum := sha256.Sum256([]byte(out.Prog.String()))
	jsSum := sha256.Sum256(js)
	return goldenDigest{hex.EncodeToString(irSum[:]), hex.EncodeToString(jsSum[:])}
}

func checkGolden(t *testing.T, name string, got, want goldenDigest) {
	t.Helper()
	if got.ir != want.ir {
		t.Errorf("%s: promoted IR digest %s, want %s", name, got.ir, want.ir)
	}
	if got.outcome != want.outcome {
		t.Errorf("%s: Outcome JSON digest %s, want %s", name, got.outcome, want.outcome)
	}
}

// TestGoldenPromotion pins SHA-256 digests of the transformed IR and the
// Outcome JSON. Any change to what promotion emits — phi placement,
// web order, register numbering, statistics — shows up here; a pure
// speed-up of the promoter must leave every digest unchanged. The large
// programs run at one worker and at four, so the worker pool and its
// largest-first dispatch order are held to the same digests whatever
// the machine's CPU count.
func TestGoldenPromotion(t *testing.T) {
	for i, want := range goldenLarge {
		w, err := workload.SizedCorpusEntry(7, i, "large")
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			opts := pipeline.Options{Lang: w.Lang, StaticProfile: true, SkipMeasurement: true, Workers: workers}
			name := fmt.Sprintf("%s/workers=%d", w.Name, workers)
			checkGolden(t, name, digestOutcome(t, name, w.Src, opts), want)
		}
	}
	progs := append(workload.Suite(), workload.ImportedSuite()...)
	if len(progs) != len(goldenSuite) {
		t.Errorf("suite has %d programs, golden table %d", len(progs), len(goldenSuite))
	}
	for _, w := range progs {
		got := digestOutcome(t, w.Name, w.Src, pipeline.Options{Lang: w.Lang})
		checkGolden(t, w.Name, got, goldenSuite[w.Name])
	}
}
