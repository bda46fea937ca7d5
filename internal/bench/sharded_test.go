package bench

import (
	"strings"
	"testing"
)

// TestShardedServe runs readers against a refreshing writer over an
// in-process two-shard fleet (under -race in CI) with the full check on:
// every sampled result must match recomputation at its epoch, the final
// answers must be byte-identical to local execution, and at least one query
// must actually travel the scatter-gather path.
func TestShardedServe(t *testing.T) {
	r := ShardedServe(ShardedServeConfig{
		ScaleFactor: 0.002, UpdatePct: 4,
		Readers: 2, Cycles: 2, Shards: 2, Check: true,
	})
	if !r.Verified {
		t.Fatalf("views diverged from recomputation after the run")
	}
	if !r.Consistent {
		t.Fatalf("a served result did not match any step-boundary state")
	}
	if !r.ByteIdentical {
		t.Fatalf("a final sharded answer diverged from local execution")
	}
	if r.CheckedSamples == 0 {
		t.Fatalf("consistency check ran on zero samples")
	}
	if r.Scattered == 0 {
		t.Fatalf("no query went through scatter-gather (fallbacks=%d)", r.Fallbacks)
	}
	if len(r.PerReaderQPS) != r.Cfg.Readers {
		t.Errorf("per-reader throughput missing: %v", r.PerReaderQPS)
	}
	out := r.Format()
	for _, needle := range []string{"t-shard", "2 shards", "queries/s", "scattered", "byte-identical"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Format missing %q:\n%s", needle, out)
		}
	}
	t.Logf("\n%s", out)
}

// TestShardedServeBaseline exercises the Shards == 0 leg: plain single-node
// serving in the sharded configuration, the comparison point the benchmark
// scales against.
func TestShardedServeBaseline(t *testing.T) {
	r := ShardedServe(ShardedServeConfig{
		ScaleFactor: 0.002, UpdatePct: 4,
		Readers: 2, Cycles: 1, Shards: 0, Check: true,
	})
	if !r.Verified || !r.Consistent || !r.ByteIdentical {
		t.Fatalf("baseline run failed: %+v", r)
	}
	if r.Scattered != 0 || r.Fallbacks != 0 {
		t.Fatalf("baseline recorded shard stats: %d/%d", r.Scattered, r.Fallbacks)
	}
	if !strings.Contains(r.Format(), "single-node baseline") {
		t.Errorf("Format missing baseline marker:\n%s", r.Format())
	}
}

// TestConcurrentServe runs readers against a refreshing writer on the
// single-node leg with the snapshot-consistency check on: every sampled
// result must match recomputation at the epoch it claims, and the writer
// publishes exactly one epoch per refresh batch.
func TestConcurrentServe(t *testing.T) {
	r := ShardedServe(ShardedServeConfig{
		ScaleFactor: 0.002, UpdatePct: 4,
		Readers: 4, Cycles: 2, Shards: 0, Check: true,
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
	for _, needle := range []string{"t-shard", "queries/s", "snapshot check", "consistent"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Format missing %q:\n%s", needle, out)
		}
	}
}
