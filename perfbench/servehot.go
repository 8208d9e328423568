package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/serve"
)

// hotSegments is how many times a serve-hot run builds its worker. The
// timed loop is split into that many segments, each served by a worker
// built just before it, so the builds sample the host across the whole
// run as the ops do rather than in one burst at its start; the median
// build is setup_s.
const hotSegments = 40

// maxTracedOps caps the ops that record spans in a traced serve-hot run
// (one op in tracedEvery is traced), bounding the span file.
const (
	maxTracedOps = 20000
	tracedEvery  = 8
)

// hotFixture holds what every serve-hot worker is built from: the
// engine config, the asset payloads exported from a fast-calib engine
// after it served every key once (so they carry the overhead
// databases), and the reference prediction of every key from an
// in-process engine loaded from the same payloads.
type hotFixture struct {
	cfg    dlrmperf.EngineConfig
	assets [][]byte
	ref    []float64
}

func newHotFixture(in hotInputs) (*hotFixture, error) {
	fx := &hotFixture{cfg: dlrmperf.FastCalibConfig(in.EngineSeed, 0)}
	gen, err := dlrmperf.NewEngineWith(fx.cfg)
	if err != nil {
		return nil, err
	}
	for _, k := range in.Keys {
		if r := gen.Predict(k.ToPredict()); r.Err != nil {
			return nil, fmt.Errorf("fixture %+v: %w", k, r.Err)
		}
	}
	for _, d := range hotDevices {
		a, err := gen.SaveAssets(d)
		if err != nil {
			return nil, err
		}
		fx.assets = append(fx.assets, a)
	}
	ref, err := dlrmperf.NewEngineWith(fx.cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range fx.assets {
		if err := ref.LoadAssets(a); err != nil {
			return nil, err
		}
	}
	for _, k := range in.Keys {
		r := ref.Predict(k.ToPredict())
		if r.Err != nil {
			return nil, r.Err
		}
		fx.ref = append(fx.ref, r.Prediction.E2EUs)
	}
	return fx, nil
}

// hotSetup builds a worker from the fixture and warms the key set
// through HTTP, checking every warm-up answer against the reference; a
// wrong answer fails the run's check, a failed request aborts the run.
func hotSetup(ctx context.Context, in hotInputs, fx *hotFixture, rec *recorder, clients int, res *result) (*worker, *client.Client, error) {
	w, err := startWorker(fx.cfg, fx.assets, rec)
	if err != nil {
		return nil, nil, err
	}
	cl := newClient(w.http.URL, clients)
	var wrong error
	for i, k := range in.Keys {
		row, err := cl.Predict(ctx, k)
		if err != nil {
			w.close()
			return nil, nil, fmt.Errorf("warming %+v: %w", k, err)
		}
		if err := checkRow(row, fx.ref[i], false); err != nil && wrong == nil {
			wrong = fmt.Errorf("warming %+v: %w", k, err)
		}
	}
	if wrong != nil {
		res.addCheck("warm-up answers match the in-process reference", false, wrong.Error())
	}
	return w, cl, nil
}

// checkRow verifies one answer: no error, bit-identical to the
// reference, and a cache hit when one is required.
func checkRow(row serve.Result, ref float64, wantHit bool) error {
	switch {
	case row.Error != "":
		return fmt.Errorf("row error %s", row.Error)
	case math.Float64bits(row.E2EUs) != math.Float64bits(ref):
		return fmt.Errorf("e2e_us %v, reference %v", row.E2EUs, ref)
	case wantHit && !row.CacheHit:
		return fmt.Errorf("not a cache hit")
	}
	return nil
}

// hotCounts is the outcome of a closed loop.
type hotCounts struct {
	attempted, failed int
	firstErr          error
	queueWaitUs       float64 // summed over traced ops
	tracedOps         int
	clientSpanUs      []float64
}

// add folds the counts of another segment into c.
func (c *hotCounts) add(o hotCounts) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.tracedOps += o.tracedOps
	c.queueWaitUs += o.queueWaitUs
	c.clientSpanUs = append(c.clientSpanUs, o.clientSpanUs...)
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
}

// hotLoop runs the closed loop: clients goroutines, each one tenant
// issuing its own Zipf stream through the client and waiting for every
// answer before sending the next, until the deadline. With a recorder,
// one op in tracedEvery (up to maxTracedOps) records spans.
func hotLoop(ctx context.Context, in hotInputs, streams []zipfStream, fx *hotFixture, cl *client.Client, d time.Duration, rec *recorder) (*opLog, hotCounts) {
	clients := len(streams)
	lat := make([][]float64, clients)
	counts := make([]hotCounts, clients)
	var tracedBudget sync.Mutex
	traced := 0
	takeTrace := func() bool {
		tracedBudget.Lock()
		defer tracedBudget.Unlock()
		if traced >= maxTracedOps {
			return false
		}
		traced++
		return true
	}
	c0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := streams[i]
			my := make([]float64, 0, 1<<16)
			c := &counts[i]
			for n := 0; time.Now().Before(deadline); n++ {
				idx := s.next()
				req := in.Keys[idx]
				req.Tenant = tenant(i)
				var root, cs active
				rctx := ctx
				if rec != nil && n%tracedEvery == 0 && takeTrace() {
					root = rec.newOp("serve.op")
					cs = root.child("client")
					rctx = withSpan(ctx, cs)
				}
				t0 := time.Now()
				row, err := cl.Predict(rctx, req)
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				cs.end()
				my = append(my, us)
				c.attempted++
				if err == nil {
					err = checkRow(row, fx.ref[idx], true)
				}
				if err != nil {
					c.failed++
					if c.firstErr == nil {
						c.firstErr = err
					}
				}
				if root.rec != nil {
					c.tracedOps++
					c.queueWaitUs += float64(row.QueueWaitUs)
					c.clientSpanUs = append(c.clientSpanUs, us)
					root.end()
				}
			}
			lat[i] = my
		}(i)
	}
	wg.Wait()
	log := &opLog{busy: time.Since(start), cpu: cpuTime() - c0}
	var total hotCounts
	for i := range counts {
		log.latUs = append(log.latUs, lat[i]...)
		total.add(counts[i])
	}
	return log, total
}

// statsCounts is the /stats counter movement over the timed segments.
type statsCounts struct {
	hits, misses, rejected uint64
	firstErr               error
}

// add checks the /stats accounting identity of one segment's worker at
// quiescence and folds the counter movement between its two snapshots
// into c.
func (c *statsCounts) add(before, after serve.Stats, attempted int) {
	c.hits += after.Cache.Hits - before.Cache.Hits
	c.misses += after.Cache.Misses - before.Cache.Misses
	c.rejected += after.Rejected.Total() - before.Rejected.Total()
	requests := after.Requests - before.Requests
	var err error
	switch {
	case after.Accounted() != after.Requests:
		err = fmt.Errorf("hits+misses+rejected %d+%d+%d vs requests %d",
			after.Cache.Hits, after.Cache.Misses, after.Rejected.Total(), after.Requests)
	case requests != uint64(attempted):
		err = fmt.Errorf("stats requests %d vs requests sent %d", requests, attempted)
	}
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// runServeHot measures the warm serving path: a closed loop of nproc
// clients through the typed client, loopback HTTP, fair admission and
// the engine's result-cache hit path, every request a hit.
func runServeHot(cfg config) (*result, error) {
	ctx := context.Background()
	in := genServeHot(cfg.seed)
	clients := runtime.NumCPU()
	fx, err := newHotFixture(in)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	res := &result{}
	window := cfg.window()
	if cfg.trace {
		window = window * 4 / 10
	}
	streams := in.streams(clients)
	var (
		setup  []float64
		log    opLog
		counts hotCounts
		stats  statsCounts
		allocs uint64
		w      *worker
	)
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	for k := 0; k < hotSegments; k++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		t0 := time.Now()
		nw, cl, err := hotSetup(ctx, in, fx, nil, clients, res)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		w = nw
		before, err := cl.Stats(ctx)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		a0 := mallocs()
		seg, c := hotLoop(ctx, in, streams, fx, cl, window/hotSegments, nil)
		allocs += mallocs() - a0
		after, err := cl.Stats(ctx)
		if err != nil {
			return nil, err
		}
		log.add(seg)
		counts.add(c)
		stats.add(before, after, c.attempted)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = counts.attempted, counts.failed
	if counts.firstErr != nil {
		res.addCheck("every answer is a bit-identical cache hit", false, counts.firstErr.Error())
	} else {
		res.addCheck("every answer is a bit-identical cache hit", true, fmt.Sprintf("%d answers", counts.attempted))
	}
	if stats.firstErr != nil {
		res.addCheck("stats hits+misses+rejected == requests == requests sent", false, stats.firstErr.Error())
	} else {
		res.addCheck("stats hits+misses+rejected == requests == requests sent", true, fmt.Sprintf("%d workers", hotSegments))
	}

	if !cfg.trace {
		res.addEndToEnd(setup, &log, rss)
		return res, nil
	}

	// Traced phase: a second worker whose handler and engine calls
	// record spans, driven by the same loop.
	rec := newRecorder()
	tw, tcl, err := hotSetup(ctx, in, fx, rec, clients, res)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	runtime.GC()
	_, tcounts := hotLoop(ctx, in, in.streams(clients), fx, tcl, cfg.window()*4/10, rec)
	res.Attempted += tcounts.attempted
	res.Failed += tcounts.failed
	if tcounts.firstErr != nil {
		res.addCheck("traced answers are bit-identical cache hits", false, tcounts.firstErr.Error())
	}

	// Ladder: the engine's hit path alone, on one goroutine.
	hitAllocs, hitErr := engineHitAllocs(ctx, in, fx, w.eng, cfg.window()/10)
	if hitErr != nil {
		res.Failed++
		res.addCheck("engine hit ladder", false, hitErr.Error())
	}

	spans := rec.snapshot()
	rows, ops := selfTimes(spans)
	queueWait := 0.0
	if tcounts.tracedOps > 0 {
		queueWait = tcounts.queueWaitUs / float64(tcounts.tracedOps)
	}
	handlerSelf := layer(rows, "serve.handler").SelfUs
	untracedOp := median(log.latUs)
	tracedOp := median(tcounts.clientSpanUs)
	hitRatio := 0.0
	if stats.hits+stats.misses > 0 {
		hitRatio = float64(stats.hits) / float64(stats.hits+stats.misses)
	}
	res.Layers = []metric{
		{Name: "engine.hit_us", Value: layer(rows, "engine.predict").SelfUs, Unit: "us", Samples: ops},
		{Name: "engine.allocs_per_hit", Value: hitAllocs, Unit: "count", Samples: len(in.Keys)},
		{Name: "engine.hit_ratio", Value: hitRatio, Unit: "ratio", Samples: int(stats.hits + stats.misses)},
		{Name: "serve.admit_self_us", Value: handlerSelf - queueWait, Unit: "us", Samples: ops},
		{Name: "serve.queue_wait_us", Value: queueWait, Unit: "us", Samples: ops},
		{Name: "serve.http_self_us", Value: layer(rows, "client").SelfUs, Unit: "us", Samples: ops},
		{Name: "serve.allocs_per_op", Value: float64(allocs) / float64(max(counts.attempted, 1)), Unit: "count", Samples: counts.attempted},
		{Name: "serve.rejected", Value: float64(stats.rejected), Unit: "count", Samples: counts.attempted},
		{Name: "reconcile.remainder_us", Value: layer(rows, "serve.op").SelfUs, Unit: "us", Samples: ops},
		{Name: "trace.overhead_us", Value: tracedOp - untracedOp, Unit: "us", Samples: ops},
	}
	res.Reconcile = []reconRow{
		{Layer: "serve.op client round trip (untraced median)", Us: untracedOp},
		{Layer: "serve.op (traced mean)", Us: layer(rows, "serve.op").WallUs},
		{Layer: "  client, transport, HTTP server outside the handler", Us: layer(rows, "client").SelfUs},
		{Layer: "  serve.handler: decode, admission, encode", Us: handlerSelf - queueWait},
		{Layer: "  serve queue wait (from the wire)", Us: queueWait},
		{Layer: "  engine.predict (hit path)", Us: layer(rows, "engine.predict").SelfUs},
		{Layer: "  remainder", Us: layer(rows, "serve.op").SelfUs, Note: "the load generator's own bookkeeping per request"},
	}
	res.SelfTimes = rows
	res.spans = spans
	return res, nil
}

// engineHitAllocs calls the warm engine's predict path directly, one
// goroutine, for about d, and returns heap allocations per call.
func engineHitAllocs(ctx context.Context, in hotInputs, fx *hotFixture, eng *dlrmperf.Engine, d time.Duration) (float64, error) {
	reqs := make([]dlrmperf.PredictRequest, len(in.Keys))
	for i, k := range in.Keys {
		reqs[i] = k.ToPredict()
	}
	runtime.GC()
	calls := 0
	a0 := mallocs()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := range reqs {
			r := eng.PredictContext(ctx, reqs[i])
			if r.Err != nil || !r.CacheHit || math.Float64bits(r.Prediction.E2EUs) != math.Float64bits(fx.ref[i]) {
				return 0, fmt.Errorf("direct hit on %+v: err=%v hit=%v e2e=%v", reqs[i], r.Err, r.CacheHit, r.Prediction.E2EUs)
			}
			calls++
		}
	}
	return float64(mallocs()-a0) / float64(calls), nil
}
