package bench

import (
	"strings"
	"testing"
)

// TestConcurrentServe runs readers against a refreshing writer (under -race
// in CI) with the snapshot-consistency check on: every sampled result must
// match recomputation at the step boundary its epoch names.
func TestConcurrentServe(t *testing.T) {
	r := ConcurrentServe(ServeConfig{
		ScaleFactor: 0.002, UpdatePct: 4,
		Readers: 4, Cycles: 2, Check: true,
	})
	if !r.Verified {
		t.Fatalf("views diverged from recomputation after the run")
	}
	if !r.Consistent {
		t.Fatalf("a served result did not match any step-boundary state")
	}
	if r.CheckedSamples == 0 {
		t.Fatalf("consistency check ran on zero samples")
	}
	if want := int64(r.Cfg.Cycles); r.Epochs != want { // one epoch per refresh batch
		t.Errorf("epochs = %d, want %d", r.Epochs, want)
	}
	if len(r.PerReaderQPS) != r.Cfg.Readers {
		t.Errorf("per-reader throughput missing: %v", r.PerReaderQPS)
	}
	out := r.Format()
	for _, needle := range []string{"t-serve", "queries/s", "snapshot check", "consistent"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Format missing %q:\n%s", needle, out)
		}
	}
	t.Logf("\n%s", out)
}
