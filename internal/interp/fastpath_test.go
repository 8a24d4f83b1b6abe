package interp

import (
	"reflect"
	"testing"

	"repro/internal/alias"
	"repro/internal/source"
	"repro/internal/workload"
)

// runPath compiles src and executes it with the given options. Each
// path runs on its own freshly compiled program instance, keeping the
// comparison airtight even though interpretation does not mutate IR.
func runPath(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	prog, err := source.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := Run(prog, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestFastPathMatchesLegacy runs every suite workload and a slice of
// generated programs through both interpretation paths and requires
// identical results: output, return value, globals, step and opcode
// counts, and the collected block/edge profile.
func TestFastPathMatchesLegacy(t *testing.T) {
	var sources []string
	for _, w := range workload.Suite() {
		sources = append(sources, w.Src)
	}
	for i := 0; i < 8; i++ {
		sources = append(sources, workload.Generate(workload.DefaultGenConfig(workload.DeriveSeed(41, i))))
	}

	for i, src := range sources {
		fast := runPath(t, src, Options{CollectProfile: true, Walker: true})
		legacy := runPath(t, src, Options{CollectProfile: true, Legacy: true})

		if !reflect.DeepEqual(fast.Output, legacy.Output) {
			t.Errorf("source %d: output differs: fast %v legacy %v", i, fast.Output, legacy.Output)
		}
		if fast.ReturnValue != legacy.ReturnValue {
			t.Errorf("source %d: return value differs: fast %d legacy %d", i, fast.ReturnValue, legacy.ReturnValue)
		}
		if fast.Steps != legacy.Steps {
			t.Errorf("source %d: steps differ: fast %d legacy %d", i, fast.Steps, legacy.Steps)
		}
		if !reflect.DeepEqual(fast.OpCounts, legacy.OpCounts) {
			t.Errorf("source %d: opcode counts differ:\nfast   %v\nlegacy %v", i, fast.OpCounts, legacy.OpCounts)
		}
		if !reflect.DeepEqual(fast.Globals, legacy.Globals) {
			t.Errorf("source %d: global images differ", i)
		}
		if !reflect.DeepEqual(fast.Profile.Funcs, legacy.Profile.Funcs) {
			t.Errorf("source %d: profiles differ:\nfast   %+v\nlegacy %+v", i, fast.Profile.Funcs, legacy.Profile.Funcs)
		}
	}
}

// TestFastPathRecursion exercises the pooled register frames and the
// stack-disciplined argument buffer under deep recursion with multiple
// live activations per level.
func TestFastPathRecursion(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int acc;
void twist(int d, int salt) {
	int local;
	local = d * 3 + salt;
	if (d > 0) {
		twist(d - 1, local);
		twist(d - 1, local + 1);
	}
	acc = acc + local;
}
void main() {
	print(fib(17));
	twist(8, 5);
	print(acc);
}`
	fast := runPath(t, src, Options{CollectProfile: true, Walker: true})
	legacy := runPath(t, src, Options{CollectProfile: true, Legacy: true})
	if !reflect.DeepEqual(fast.Output, legacy.Output) {
		t.Fatalf("output differs: fast %v legacy %v", fast.Output, legacy.Output)
	}
	if !reflect.DeepEqual(fast.Profile.Funcs, legacy.Profile.Funcs) {
		t.Fatalf("profiles differ")
	}
	if fast.Output[0] != 1597 {
		t.Fatalf("fib(17) = %d, want 1597", fast.Output[0])
	}
}
