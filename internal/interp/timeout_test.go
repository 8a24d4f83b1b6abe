package interp_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/source"
)

// longLoop runs ~40M instructions — far past a 1ms deadline, well
// under the step limit.
const longLoop = `
int x;
void main() {
	int i;
	for (i = 0; i < 10000000; i++) x++;
	print(x);
}
`

// TestWallClockTimeout holds the default bytecode path and the pooled
// walker to the deadline.
func TestWallClockTimeout(t *testing.T) {
	prog, err := source.Compile(longLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, walker := range []bool{false, true} {
		start := time.Now()
		_, err = interp.Run(prog, interp.Options{Timeout: time.Millisecond, Walker: walker})
		if err == nil || !strings.Contains(err.Error(), "timeout") {
			t.Fatalf("walker=%v: err = %v, want wall-clock timeout", walker, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("walker=%v: timeout enforcement took %v", walker, elapsed)
		}
	}
}

func TestNoTimeoutByDefault(t *testing.T) {
	prog, err := source.Compile(`void main() { print(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 1 {
		t.Fatalf("output = %v", res.Output)
	}
}
