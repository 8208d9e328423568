package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dlrmperf"
	"dlrmperf/internal/serve"
)

// newWorker stands up a real serve.Server over the tiny fast-calib
// engine behind an httptest listener — the loadgen's target in these
// tests is the genuine wire surface, not a stub.
func newWorker(t *testing.T, cfg serve.Config) string {
	t.Helper()
	if cfg.Backend == nil {
		eng, err := dlrmperf.NewEngineWith(dlrmperf.FastCalibConfig(23, 4))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backend = eng
	}
	s := serve.New(cfg)
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRunAgainstWorker replays a two-tenant synthetic stream against a
// live worker and checks the report's internal accounting: every
// scheduled tick is either sent or missed, every sent request lands in
// exactly one outcome bucket, latency quantiles are ordered, repeats
// hit the cache, and the server-side invariant holds after the run.
func TestRunAgainstWorker(t *testing.T) {
	url := newWorker(t, serve.Config{QueueDepth: 32, Workers: 4})
	rep, err := Run(context.Background(), Config{
		Target: url,
		Tenants: []TenantSpec{
			{Name: "hot", RPS: 500, Priority: "high"},
			{Name: "bg", RPS: 100},
		},
		N:              40, // per tenant; bounds the run instead of wall clock
		PoolSize:       8,
		Seed:           7,
		Timeout:        30 * time.Second,
		CheckInvariant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenant breakdown has %d entries, want 2", len(rep.Tenants))
	}
	tot := rep.Totals
	if tot.Scheduled != 80 {
		t.Fatalf("scheduled = %d, want 80", tot.Scheduled)
	}
	if tot.Sent+tot.Missed != tot.Scheduled {
		t.Fatalf("sent %d + missed %d != scheduled %d", tot.Sent, tot.Missed, tot.Scheduled)
	}
	if got := tot.OK + tot.AppErrors + tot.ShedTotal + tot.Transport + tot.Other; got != tot.Sent {
		t.Fatalf("outcomes %d != sent %d: %+v", got, tot.Sent, tot)
	}
	if tot.OK == 0 {
		t.Fatal("no request succeeded against a healthy worker")
	}
	lq := tot.Latency
	if lq.P50 > lq.P95 || lq.P95 > lq.P99 || lq.P99 > lq.Max {
		t.Fatalf("quantiles out of order: %+v", lq)
	}
	if tot.CacheHitRate == 0 {
		t.Error("zipf replay over an 8-entry pool produced no cache hits")
	}
	if rep.Server == nil || !rep.Server.InvariantOK {
		t.Fatalf("server invariant not verified: %+v", rep.Server)
	}
	for _, tr := range rep.Tenants {
		if tr.Name != "hot" && tr.Name != "bg" {
			t.Fatalf("unexpected tenant %q in breakdown", tr.Name)
		}
		if tr.Scheduled != 40 {
			t.Errorf("tenant %s scheduled %d, want 40", tr.Name, tr.Scheduled)
		}
	}
}

// TestShedAccounting: a target shedding everything yields a complete
// report — shed rate 1.0 with the rejection code broken out — and no
// error from Run itself.
func TestShedAccounting(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		serve.WriteJSON(w, http.StatusTooManyRequests, serve.HTTPError{Code: "queue_full", Message: "busy"})
	}))
	t.Cleanup(ts.Close)
	rep, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Tenants: []TenantSpec{{Name: "t", RPS: 1000}},
		N:       20,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals
	if tot.ShedTotal != tot.Sent || tot.Shed["queue_full"] != tot.Sent {
		t.Fatalf("shed accounting = %+v, want every sent request under queue_full", tot)
	}
	if tot.Sent > 0 && tot.ShedRate != 1 {
		t.Fatalf("shed rate = %v, want 1.0", tot.ShedRate)
	}
}

// TestMissedAccountingUnderBound: with a single in-flight slot against
// a slow target, the open-loop clock keeps firing and the turned-away
// ticks are counted as missed.
func TestMissedAccountingUnderBound(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(50 * time.Millisecond)
		serve.WriteJSON(w, http.StatusOK, serve.Result{})
	}))
	t.Cleanup(ts.Close)
	rep, err := Run(context.Background(), Config{
		Target:      ts.URL,
		Tenants:     []TenantSpec{{Name: "t", RPS: 500}},
		N:           30,
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals
	if tot.Missed == 0 {
		t.Fatalf("no ticks missed with a 1-slot bound against a 50ms target: %+v", tot)
	}
	if tot.Scheduled != 30 || tot.Sent+tot.Missed != 30 {
		t.Fatalf("schedule accounting broken: %+v", tot)
	}
}

// TestTenantAchievedRPSUsesOwnWindow: under -n, a fast tenant finishes
// its requests long before a slow one ends the run, so each tenant's
// achieved_rps must divide by its own active window, not the run's.
// Both tenants send the same N; the hot one at 10x the rate.
func TestTenantAchievedRPSUsesOwnWindow(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.Result{})
	}))
	t.Cleanup(ts.Close)
	rep, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Tenants: []TenantSpec{{Name: "hot", RPS: 200}, {Name: "bg", RPS: 20}},
		N:       10,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot, bg := rep.Tenants[0], rep.Tenants[1]
	if hot.OK != 10 || bg.OK != 10 {
		t.Fatalf("ok = %d/%d, want 10/10", hot.OK, bg.OK)
	}
	if hot.AchievedRPS <= 3*bg.AchievedRPS {
		t.Fatalf("achieved_rps hot %.1f vs bg %.1f, want hot > 3x bg", hot.AchievedRPS, bg.AchievedRPS)
	}
}

// TestInvariantCheckFailsOnBrokenTarget: a target whose counters
// violate the accounting identity fails the run.
func TestInvariantCheckFailsOnBrokenTarget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stats" {
			serve.WriteJSON(w, http.StatusOK, map[string]any{
				"requests": 10,
				"cache":    map[string]uint64{"hits": 1, "misses": 2},
				"rejected": map[string]uint64{"queue_full": 3}, // 6 != 10
			})
			return
		}
		serve.WriteJSON(w, http.StatusOK, serve.Result{})
	}))
	t.Cleanup(ts.Close)
	rep, err := Run(context.Background(), Config{
		Target:         ts.URL,
		Tenants:        []TenantSpec{{Name: "t", RPS: 1000}},
		N:              3,
		CheckInvariant: true,
	})
	if err == nil {
		t.Fatal("broken invariant passed the check")
	}
	if rep == nil || rep.Server == nil || rep.Server.InvariantOK {
		t.Fatalf("report does not carry the failing server stats: %+v", rep)
	}
}

// TestLoadTrace covers both accepted trace shapes and the rejects.
func TestLoadTrace(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bare := write("bare.json", `[{"workload":"a","device":"V100","batch":512}]`)
	if rows, err := LoadTrace(bare); err != nil || len(rows) != 1 || rows[0].Workload != "a" {
		t.Fatalf("bare array trace = %v / %v", rows, err)
	}
	wrapped := write("wrapped.json", `{"requests":[{"workload":"a","device":"V100"},{"workload":"b","device":"P100"}]}`)
	if rows, err := LoadTrace(wrapped); err != nil || len(rows) != 2 {
		t.Fatalf("wrapped trace = %v / %v", rows, err)
	}
	for name, body := range map[string]string{
		"garbage.json": `not json`,
		"empty.json":   `[]`,
		"noload.json":  `[{"device":"V100"}]`,
	} {
		if _, err := LoadTrace(write(name, body)); err == nil {
			t.Errorf("%s accepted, want an error", name)
		}
	}
	if _, err := LoadTrace(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestTraceReplayDrivesPool: a trace pool is replayed verbatim (modulo
// tenant/priority tags) — every request the worker sees matches a
// trace row.
func TestTraceReplayDrivesPool(t *testing.T) {
	var seen []serve.Request
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err == nil {
			mu.Lock()
			seen = append(seen, req)
			mu.Unlock()
		}
		serve.WriteJSON(w, http.StatusOK, serve.Result{Request: req})
	}))
	t.Cleanup(ts.Close)
	trace := []serve.Request{
		{Workload: "w1", Device: "V100", Batch: 256},
		{Workload: "w2", Device: "P100", Batch: 512},
	}
	if _, err := Run(context.Background(), Config{
		Target:   ts.URL,
		Tenants:  []TenantSpec{{Name: "acme", RPS: 1000, Priority: "low"}},
		N:        10,
		Requests: trace,
		Seed:     3,
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("worker saw no requests")
	}
	for _, req := range seen {
		if req.Tenant != "acme" || req.Priority != "low" {
			t.Fatalf("tenant/priority tag not applied: %+v", req)
		}
		if !((req.Workload == "w1" && req.Batch == 256) || (req.Workload == "w2" && req.Batch == 512)) {
			t.Fatalf("request not from the trace pool: %+v", req)
		}
	}
}

// TestBenchSuite pins the benchdiff bridge: quantiles in nanoseconds,
// absent alloc metrics marked -1, sample count from OK rows.
func TestBenchSuite(t *testing.T) {
	rep := &Report{}
	rep.Totals.OK = 9
	rep.Totals.Latency = LatencyQuantiles{P50: 100, P95: 200, P99: 300}
	s := rep.BenchSuite()
	p99, ok := s.Benchmarks["LoadgenLatencyP99"]
	if !ok || p99.NsPerOp != 300_000 || p99.BytesPerOp != -1 || p99.AllocsPerOp != -1 || p99.Samples != 9 {
		t.Fatalf("bench suite = %+v", s)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("suite has %d entries, want 3", len(s.Benchmarks))
	}
}

// TestQuantileNearestRank pins the quantile read.
func TestQuantileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := quantile(sorted, 0.5); got != 60 {
		t.Errorf("p50 = %d, want 60", got)
	}
	if got := quantile(sorted, 0.99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
}

// TestConfigValidation rejects unusable configs.
func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{}); err == nil {
		t.Error("no target accepted")
	}
	if _, err := Run(ctx, Config{Target: "http://x"}); err == nil {
		t.Error("no tenants accepted")
	}
	if _, err := Run(ctx, Config{Target: "http://x", Tenants: []TenantSpec{{Name: "t"}}}); err == nil {
		t.Error("zero-rps tenant accepted")
	}
	if _, err := Run(ctx, Config{Target: "http://x", Tenants: []TenantSpec{{Name: "t", RPS: 1}}, ZipfSkew: -1}); err == nil {
		t.Error("negative skew accepted")
	}
}
