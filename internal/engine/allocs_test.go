//go:build !race

package engine

import (
	"context"
	"testing"

	"dlrmperf/internal/hw"
	"dlrmperf/internal/models"
)

// TestWarmHitAllocs pins the allocation budget of the warm paths that
// serve every repeated request: a PredictCtx result-cache hit, a
// PredictBatchCtx of four hits (the result slice only), and a
// RemoteResult hit. cachedFlight hands its build the engine and
// argument instead of closing over them, so no closure is made until a
// miss; a change that breaks that shows up here as an allocation. The
// race detector's instrumentation allocates on its own, hence the
// build tag.
func TestWarmHitAllocs(t *testing.T) {
	e := New(tinyOptions(7))
	ctx := context.Background()
	batch := make([]Request, 0, 4)
	for _, b := range []int64{128, 256, 512, 1024} {
		batch = append(batch, NewRequest(hw.V100, models.NameDLRMDefault, b))
	}
	for _, r := range e.PredictBatchCtx(ctx, batch) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	remote := NewRequest(hw.V100, models.NameDLRMDefault, 2048)
	fetch := func() (any, error) { return "row", nil }
	if _, _, err := e.RemoteResult(ctx, remote, fetch); err != nil {
		t.Fatal(err)
	}

	const runs = 200
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"PredictCtx hit", 0, func() { e.PredictCtx(ctx, batch[0]) }},
		{"PredictBatchCtx of 4 hits", 1, func() { e.PredictBatchCtx(ctx, batch) }},
		{"RemoteResult hit", 0, func() { e.RemoteResult(ctx, remote, fetch) }},
	} {
		if got := testing.AllocsPerRun(runs, c.run); got > c.max {
			t.Errorf("%s: %v allocs/op, want <= %v", c.name, got, c.max)
		}
	}
	// Every measured call was a hit (AllocsPerRun adds one warm-up call
	// per case), so the budgets above are hit-path budgets.
	if hits, misses := e.CacheStats(); misses != 5 || hits != 6*(runs+1) {
		t.Fatalf("cache = %d/%d hit/miss, want %d/5", hits, misses, 6*(runs+1))
	}
}
