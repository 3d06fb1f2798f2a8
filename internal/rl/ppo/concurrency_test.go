package ppo

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/prng"
	"repro/internal/rl"
)

// TestUpdateIndependentOfGOMAXPROCS: the policy and value halves of an
// update produce the golden digest whether they can run at the same
// time or must take turns on one processor.
func TestUpdateIndependentOfGOMAXPROCS(t *testing.T) {
	run := func() string {
		a := New(64, 64, discoveryConfig(), prng.New(11))
		data := prng.New(12)
		var stats []rl.UpdateStats
		for u := 0; u < goldenUpdates; u++ {
			stats = append(stats, a.Update(rollout(a, data, 8, 64, 64)))
		}
		return digest(a, stats)
	}
	parallel := run()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := run()
	if parallel != goldenDigest {
		t.Errorf("default GOMAXPROCS: digest %s, want %s", parallel, goldenDigest)
	}
	if serial != goldenDigest {
		t.Errorf("GOMAXPROCS(1): digest %s, want %s", serial, goldenDigest)
	}
}

// TestUpdateContextUntracedAllocatesNothing: a context from a disabled
// (nil) tracer carries no span, so UpdateContext records nothing and,
// like Update, allocates nothing after warm-up.
func TestUpdateContextUntracedAllocatesNothing(t *testing.T) {
	var tr *trace.Tracer
	sp, ctx := tr.StartRoot(context.Background(), trace.SpanSession)
	if sp != nil {
		t.Fatal("nil tracer started a span")
	}
	a := New(64, 64, discoveryConfig(), prng.New(41))
	b := rollout(a, prng.New(42), 8, 64, 64)
	if allocs := testing.AllocsPerRun(2, func() { a.UpdateContext(ctx, b) }); allocs != 0 {
		t.Errorf("UpdateContext made %v allocations per call after warm-up, want 0", allocs)
	}
}
