// Package loadgen is the trace-driven load harness for the serving
// surface: it replays Zipf-skewed synthetic streams or checked-in
// trace files against a live worker or coordinator at target
// per-tenant request rates, through the same typed client
// (internal/client) every other consumer uses, and reports SLO-grade
// accounting — p50/p95/p99 latency, achieved throughput, shed rate by
// rejection code, cache hit rate, and a per-tenant breakdown — in a
// JSON report plus a benchdiff-compatible suite for regression
// ratcheting.
//
// The scheduler is bounded open-loop: each tenant fires on its own
// fixed-rate clock regardless of response latency (open loop, so a
// slow server cannot flatter its own throughput by slowing the
// generator), but dispatch is capped by a shared in-flight bound. A
// tick that finds no free slot is counted as missed, never silently
// dropped — the report shows exactly how much offered load the bound
// turned away.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
	"dlrmperf/internal/xrand"
)

// TenantSpec is one tenant's offered load: a name (the serve-layer
// wire tag), a target request rate, and the priority class its
// requests carry.
type TenantSpec struct {
	Name     string  `json:"name"`
	RPS      float64 `json:"rps"`
	Priority string  `json:"priority,omitempty"`
}

// Config drives one load run.
type Config struct {
	// Target is the base URL of the worker or coordinator under load.
	Target string
	// Client overrides the client built from Target (tests).
	Client *client.Client
	// Tenants is the offered-load mix; at least one with RPS > 0.
	Tenants []TenantSpec
	// Duration bounds the run by wall clock; N bounds it by requests
	// scheduled per tenant. Either may be set; with both zero the run
	// defaults to 5 seconds.
	Duration time.Duration
	N        int
	// MaxInFlight caps concurrent outstanding requests across all
	// tenants (default 64). Ticks arriving with no free slot are
	// counted as missed.
	MaxInFlight int
	// Requests is the replay pool. Leave nil to synthesize one from
	// Scenarios x Devices x Batches (engine defaults when empty),
	// PoolSize entries. Tenant and Priority on pool entries are
	// overwritten by the firing tenant's spec.
	Requests  []serve.Request
	Scenarios []string
	Devices   []string
	Batches   []int64
	PoolSize  int
	// ZipfSkew shapes the draw over the pool (default 1.0; 0 is
	// uniform); Seed makes the draw sequence reproducible.
	ZipfSkew float64
	Seed     int64
	// Timeout is the per-request deadline (default 10s), applied both
	// as the client context deadline and the request's own timeout_ms.
	Timeout time.Duration
	// CheckInvariant fetches /stats after the run and verifies the
	// accounting identity hits + misses + rejected == requests on the
	// target's own counters (worker or coordinator shape).
	CheckInvariant bool
}

func (c *Config) withDefaults() error {
	if c.Target == "" && c.Client == nil {
		return errors.New("loadgen: no target")
	}
	if len(c.Tenants) == 0 {
		return errors.New("loadgen: no tenants")
	}
	for i := range c.Tenants {
		if c.Tenants[i].RPS <= 0 {
			return fmt.Errorf("loadgen: tenant %q has no positive rps", c.Tenants[i].Name)
		}
		if c.Tenants[i].Name == "" {
			c.Tenants[i].Name = "default"
		}
	}
	if c.Duration <= 0 && c.N <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 32
	}
	if c.ZipfSkew < 0 {
		return errors.New("loadgen: negative zipf skew")
	}
	if c.ZipfSkew == 0 {
		c.ZipfSkew = 1.0
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = client.New(c.Target)
	}
	return nil
}

// pool materializes the replay pool: the explicit trace when given,
// else the synthetic cross product cycled to PoolSize entries.
func (c *Config) pool() []serve.Request {
	if len(c.Requests) > 0 {
		return c.Requests
	}
	scenarios := c.Scenarios
	if len(scenarios) == 0 {
		scenarios = []string{dlrmperf.DLRMDefault}
	}
	devices := c.Devices
	if len(devices) == 0 {
		devices = []string{dlrmperf.V100}
	}
	batches := c.Batches
	if len(batches) == 0 {
		batches = []int64{256, 512, 1024, 2048}
	}
	var all []serve.Request
	for _, sc := range scenarios {
		for _, dev := range devices {
			for _, b := range batches {
				all = append(all, serve.Request{Workload: sc, Device: dev, Batch: b})
			}
		}
	}
	out := make([]serve.Request, c.PoolSize)
	for i := range out {
		out[i] = all[i%len(all)]
	}
	return out
}

// collector accumulates one tenant's outcomes. All fields are guarded
// by mu; latencies are microseconds.
type collector struct {
	mu          sync.Mutex
	scheduled   uint64
	missed      uint64
	ok          uint64
	appErrors   uint64
	cacheHits   uint64
	shed        map[string]uint64 // rejection code -> count (429/503 families)
	transport   uint64
	otherErrors uint64
	latencies   []int64
	queueWaitUs int64
	maxWaitUs   int64
	// firstSend and lastDone bound the tenant's active window: its
	// earliest dispatch and its latest completion.
	firstSend, lastDone time.Time
}

func newCollector() *collector { return &collector{shed: map[string]uint64{}} }

// record classifies one completed request, dispatched at sent, through
// the typed error taxonomy.
func (c *collector) record(res serve.Result, err error, sent time.Time) {
	done := time.Now()
	latency := done.Sub(sent)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.firstSend.IsZero() || sent.Before(c.firstSend) {
		c.firstSend = sent
	}
	if done.After(c.lastDone) {
		c.lastDone = done
	}
	if err == nil {
		if res.Error != "" {
			c.appErrors++
			return
		}
		c.ok++
		if res.CacheHit {
			c.cacheHits++
		}
		c.latencies = append(c.latencies, latency.Microseconds())
		c.queueWaitUs += res.QueueWaitUs
		if res.QueueWaitUs > c.maxWaitUs {
			c.maxWaitUs = res.QueueWaitUs
		}
		return
	}
	var api *client.APIError
	if !errors.As(err, &api) {
		c.transport++
		return
	}
	switch api.Status {
	case 429, 503:
		code := api.Code
		if code == "" {
			code = "unknown"
		}
		c.shed[code]++
	default:
		c.otherErrors++
	}
}

// Run executes one load run and assembles the report. It returns an
// error only for configuration or invariant failures — a server
// shedding every request still yields a report; the caller judges the
// shed rate.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	pool := cfg.pool()
	slots := make(chan struct{}, cfg.MaxInFlight)
	start := time.Now()

	runCtx := ctx
	var cancel context.CancelFunc
	if cfg.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	collectors := make([]*collector, len(cfg.Tenants))
	var fleet sync.WaitGroup // tenant schedulers
	var inFlight sync.WaitGroup
	for ti := range cfg.Tenants {
		collectors[ti] = newCollector()
		fleet.Add(1)
		go func(ti int) {
			defer fleet.Done()
			spec := cfg.Tenants[ti]
			col := collectors[ti]
			// Per-tenant sampler: reproducible for a fixed seed, decorrelated
			// across tenants.
			zipf := xrand.NewZipf(xrand.New(uint64(cfg.Seed)+uint64(ti)+1), len(pool), cfg.ZipfSkew)
			interval := time.Duration(float64(time.Second) / spec.RPS)
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for n := 0; cfg.N <= 0 || n < cfg.N; n++ {
				select {
				case <-runCtx.Done():
					return
				case <-ticker.C:
				}
				req := pool[zipf.Next()]
				req.Tenant = spec.Name
				req.Priority = spec.Priority
				req.TimeoutMs = cfg.Timeout.Milliseconds()
				col.mu.Lock()
				col.scheduled++
				col.mu.Unlock()
				select {
				case slots <- struct{}{}:
				default:
					// Open-loop bound hit: the offered request is turned away at
					// the generator and accounted, not silently dropped.
					col.mu.Lock()
					col.missed++
					col.mu.Unlock()
					continue
				}
				inFlight.Add(1)
				go func() {
					defer inFlight.Done()
					defer func() { <-slots }()
					// The request context outlives runCtx on purpose: the run
					// deadline stops SCHEDULING, while dispatched requests get
					// their full timeout so tail latencies are measured, not
					// truncated.
					rctx, rcancel := context.WithTimeout(ctx, cfg.Timeout)
					defer rcancel()
					t0 := time.Now()
					res, err := cfg.Client.Predict(rctx, req)
					col.record(res, err, t0)
				}()
			}
		}(ti)
	}
	fleet.Wait()
	inFlight.Wait()
	elapsed := time.Since(start)

	rep := buildReport(cfg, collectors, elapsed)
	if cfg.CheckInvariant {
		sctx, scancel := context.WithTimeout(ctx, cfg.Timeout)
		defer scancel()
		sv, err := fetchServerStats(sctx, cfg.Client)
		if err != nil {
			return rep, fmt.Errorf("loadgen: fetching /stats for the invariant check: %w", err)
		}
		rep.Server = sv
		if !sv.InvariantOK {
			return rep, fmt.Errorf("loadgen: stats invariant broken on %s: hits %d + misses %d + rejected %d != requests %d",
				cfg.Client.Base(), sv.CacheHits, sv.CacheMisses, sv.Rejected, sv.Requests)
		}
	}
	return rep, nil
}

// ServerStats is the target's own accounting after the run, with the
// invariant verdict. The identity only holds at quiescence, which the
// run guarantees by waiting out its in-flight requests first.
type ServerStats struct {
	Requests    uint64 `json:"requests"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Rejected    uint64 `json:"rejected"`
	InvariantOK bool   `json:"invariant_ok"`
}

func fetchServerStats(ctx context.Context, cl *client.Client) (*ServerStats, error) {
	st, err := cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	return &ServerStats{
		Requests:    st.Requests,
		CacheHits:   st.Cache.Hits,
		CacheMisses: st.Cache.Misses,
		Rejected:    st.Rejected.Total(),
		InvariantOK: st.Accounted() == st.Requests,
	}, nil
}

// quantile reads the q-th quantile (0..1) from sorted microsecond
// samples with nearest-rank rounding.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func buildReport(cfg Config, collectors []*collector, elapsed time.Duration) *Report {
	rep := &Report{
		Target:       cfg.Client.Base(),
		Seed:         cfg.Seed,
		ZipfSkew:     cfg.ZipfSkew,
		DurationSecs: elapsed.Seconds(),
		Tenants:      make([]TenantReport, len(cfg.Tenants)),
	}
	var allLatencies []int64
	for i, col := range collectors {
		col.mu.Lock()
		tr := TenantReport{
			Name:      cfg.Tenants[i].Name,
			Priority:  cfg.Tenants[i].Priority,
			TargetRPS: cfg.Tenants[i].RPS,
			Scheduled: col.scheduled,
			Missed:    col.missed,
			OK:        col.ok,
			AppErrors: col.appErrors,
			CacheHits: col.cacheHits,
			Transport: col.transport,
			Other:     col.otherErrors,
		}
		if len(col.shed) > 0 {
			tr.Shed = make(map[string]uint64, len(col.shed))
			for code, n := range col.shed {
				tr.Shed[code] = n
				tr.ShedTotal += n
			}
		}
		sent := tr.Scheduled - tr.Missed
		tr.Sent = sent
		if sent > 0 {
			tr.ShedRate = float64(tr.ShedTotal) / float64(sent)
		}
		if tr.OK > 0 {
			tr.CacheHitRate = float64(tr.CacheHits) / float64(tr.OK)
			tr.AvgQueueWaitUs = float64(col.queueWaitUs) / float64(tr.OK)
			tr.MaxQueueWaitUs = col.maxWaitUs
		}
		// A tenant's throughput is over its own active window: with -n,
		// a fast tenant finishes long before a slow one ends the run.
		if window := col.lastDone.Sub(col.firstSend); window > 0 {
			tr.AchievedRPS = float64(tr.OK) / window.Seconds()
		}
		lat := append([]int64(nil), col.latencies...)
		col.mu.Unlock()
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		tr.Latency = latencyFrom(lat)
		allLatencies = append(allLatencies, lat...)
		rep.Tenants[i] = tr

		rep.Totals.Scheduled += tr.Scheduled
		rep.Totals.Missed += tr.Missed
		rep.Totals.Sent += tr.Sent
		rep.Totals.OK += tr.OK
		rep.Totals.AppErrors += tr.AppErrors
		rep.Totals.CacheHits += tr.CacheHits
		rep.Totals.ShedTotal += tr.ShedTotal
		rep.Totals.Transport += tr.Transport
		rep.Totals.Other += tr.Other
		for code, n := range tr.Shed {
			if rep.Totals.Shed == nil {
				rep.Totals.Shed = map[string]uint64{}
			}
			rep.Totals.Shed[code] += n
		}
	}
	sort.Slice(allLatencies, func(a, b int) bool { return allLatencies[a] < allLatencies[b] })
	rep.Totals.Name = "all"
	rep.Totals.Latency = latencyFrom(allLatencies)
	if rep.Totals.Sent > 0 {
		rep.Totals.ShedRate = float64(rep.Totals.ShedTotal) / float64(rep.Totals.Sent)
	}
	if rep.Totals.OK > 0 {
		rep.Totals.CacheHitRate = float64(rep.Totals.CacheHits) / float64(rep.Totals.OK)
	}
	if elapsed > 0 {
		rep.Totals.AchievedRPS = float64(rep.Totals.OK) / elapsed.Seconds()
	}
	return rep
}

func latencyFrom(sorted []int64) LatencyQuantiles {
	lq := LatencyQuantiles{
		P50: quantile(sorted, 0.50),
		P95: quantile(sorted, 0.95),
		P99: quantile(sorted, 0.99),
	}
	if n := len(sorted); n > 0 {
		lq.Max = sorted[n-1]
		var sum int64
		for _, v := range sorted {
			sum += v
		}
		lq.MeanUs = float64(sum) / float64(n)
	}
	return lq
}
