package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"time"

	"dlrmperf"
	"dlrmperf/internal/client"
	"dlrmperf/internal/cluster"
	"dlrmperf/internal/engine"
	"dlrmperf/internal/explore"
	"dlrmperf/internal/models"
	"dlrmperf/internal/serve"
)

// workerIDs names the two sweep-cold workers so that rendezvous
// routing gives each grid device its own worker. IDs taken from the
// random loopback ports would move both devices onto one worker in
// some runs and not in others, and with them the sweep time.
func workerIDs() []string {
	for n := 1; n < 1000; n++ {
		ids := []string{"worker-0", "worker-" + strconv.Itoa(n)}
		ws := []cluster.Worker{{ID: ids[0]}, {ID: ids[1]}}
		if cluster.Rank(ws, sweepDevices[0])[0].ID != cluster.Rank(ws, sweepDevices[1])[0].ID {
			return ids
		}
	}
	return []string{"worker-0", "worker-1"}
}

// sweepFixture holds what every sweep-cold cluster is rebuilt from: the
// worker engine config, the asset payloads exported right after
// calibration (before any overhead collection, so runs, overhead
// databases, plans and results start cold on every rebuild), the
// expanded grid, and the report of an in-process sweep on an engine
// loaded from the same payloads.
type sweepFixture struct {
	cfg    dlrmperf.EngineConfig
	assets [][]byte
	ex     *explore.Expansion
	ref    *explore.Report
}

func newSweepFixture(ctx context.Context, in sweepInputs) (*sweepFixture, error) {
	fx := &sweepFixture{cfg: dlrmperf.FastCalibConfig(in.EngineSeed, 0)}
	fx.cfg.Devices = sweepDevices
	gen, err := dlrmperf.NewEngineWith(fx.cfg)
	if err != nil {
		return nil, err
	}
	if err := gen.Calibrate(); err != nil {
		return nil, err
	}
	for _, d := range sweepDevices {
		a, err := gen.SaveAssets(d)
		if err != nil {
			return nil, err
		}
		fx.assets = append(fx.assets, a)
	}
	if fx.ex, err = explore.Expand(in.Grid); err != nil {
		return nil, err
	}
	ref, err := fx.engine(0)
	if err != nil {
		return nil, err
	}
	fx.ref = explore.SweepExpansion(ctx, ref, fx.ex)
	return fx, nil
}

// engine returns a facade engine loaded from the fixture's payloads
// (workers 0 selects the default pool).
func (fx *sweepFixture) engine(workers int) (*dlrmperf.Engine, error) {
	cfg := fx.cfg
	cfg.Workers = workers
	eng, err := dlrmperf.NewEngineWith(cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range fx.assets {
		if err := eng.LoadAssets(a); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// sweepCluster is an in-process coordinator over loopback workers.
type sweepCluster struct {
	reg     *cluster.Registry
	workers []*worker
	coord   *cluster.Coordinator
	hop     *http.Transport
	http    *httptest.Server
	cl      *client.Client
}

// startCluster rebuilds the cluster from the fixture's payloads. With
// withCache the coordinator fronts the workers with its default
// pass-through result cache (a cache-only engine, as dlrmperf-serve
// -coordinator runs it); without, every request is forwarded.
func startCluster(fx *sweepFixture, rec *recorder, withCache bool) (*sweepCluster, error) {
	// Registrations outlive any run: no heartbeats are needed.
	c := &sweepCluster{reg: cluster.NewRegistry(time.Hour)}
	for _, id := range workerIDs() {
		w, err := startWorker(fx.cfg, fx.assets, rec)
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
		c.reg.Register(id, w.http.URL)
	}
	var cache cluster.ResultCache
	if withCache {
		ce, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: fx.cfg.Seed})
		if err != nil {
			c.close()
			return nil, err
		}
		cache = ce
	}
	c.hop = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 32}
	c.coord = cluster.New(cluster.Config{Registry: c.reg, Cache: cache,
		Client: &http.Client{Transport: tracingTransport{base: c.hop}}})
	var h http.Handler = c.coord.Handler()
	if rec != nil {
		h = traceHandler(rec, "cluster.handler", h)
	}
	c.http = httptest.NewServer(h)
	c.cl = newClient(c.http.URL, 2)
	return c, nil
}

func (c *sweepCluster) close() {
	if c.http != nil {
		c.http.Close()
		c.coord.Drain(false)
		c.hop.CloseIdleConnections()
	}
	for _, w := range c.workers {
		w.close()
	}
}

// checkSweep verifies one cluster sweep report against the grid's
// coverage identity and the in-process reference.
func checkSweep(rep *explore.Report, fx *sweepFixture) error {
	switch {
	case rep.GridPoints != fx.ex.Total:
		return fmt.Errorf("grid_points %d, want %d", rep.GridPoints, fx.ex.Total)
	case rep.Unique+rep.Duplicates+rep.Rejected != rep.GridPoints:
		return fmt.Errorf("unique %d + duplicates %d + rejected %d != grid_points %d",
			rep.Unique, rep.Duplicates, rep.Rejected, rep.GridPoints)
	case rep.Failed != 0:
		return fmt.Errorf("%d failed units: %+v", rep.Failed, rep.FailedSamples)
	case rep.Predicted != rep.Unique:
		return fmt.Errorf("predicted %d of %d unique units", rep.Predicted, rep.Unique)
	}
	return sameRows(rep, fx.ref)
}

// sameRows compares the frontier, top and best-per-workload tables of
// two reports bit for bit, ignoring only the cache-hit marks.
func sameRows(got, want *explore.Report) error {
	norm := func(rows []explore.Row) []explore.Row {
		out := append([]explore.Row(nil), rows...)
		for i := range out {
			out[i].CacheHit = false
		}
		return out
	}
	if !reflect.DeepEqual(norm(got.Frontier), norm(want.Frontier)) {
		return fmt.Errorf("frontier differs from the in-process sweep")
	}
	if !reflect.DeepEqual(norm(got.Top), norm(want.Top)) {
		return fmt.Errorf("top rows differ from the in-process sweep")
	}
	if len(got.Best) != len(want.Best) {
		return fmt.Errorf("best_per_workload has %d rows, want %d", len(got.Best), len(want.Best))
	}
	for k, w := range want.Best {
		if !reflect.DeepEqual(norm([]explore.Row{got.Best[k]}), norm([]explore.Row{w})) {
			return fmt.Errorf("best row of %s differs from the in-process sweep", k)
		}
	}
	return nil
}

// assetMisses reads the per-class miss counts of a sweep report's
// merged worker asset stats.
func assetMisses(rep *explore.Report) map[string]uint64 {
	out := map[string]uint64{}
	if rep.Assets == nil {
		return out
	}
	for _, c := range rep.Assets.Classes {
		out[c.Class] = c.Misses
	}
	return out
}

// sweepRun is the outcome of a sequence of cold sweeps.
type sweepRun struct {
	log    opLog
	setup  []float64
	misses map[string]uint64
	last   *explore.Report
}

// sweepSetups is how many times the cluster is rebuilt before each
// sweep; the last rebuild serves the sweep. A 7 ms rebuild samples the
// host's speed at one moment, and on a shared host that speed swings by
// 2x between moments, so more rebuilds per run steady their median.
const sweepSetups = 3

// coldSweeps rebuilds the cluster and sweeps the grid once per op until
// d has passed (and at least minOps sweeps ran). Rebuild time is set-up;
// the op is the sweep alone.
func coldSweeps(ctx context.Context, fx *sweepFixture, in sweepInputs, res *result, rec *recorder, d time.Duration, minOps int) (*sweepRun, error) {
	run := &sweepRun{}
	start := time.Now()
	err := loopUntil(start.Add(d), hardStop(start, d), minOps, func(int) error {
		var c *sweepCluster
		for k := 0; k < sweepSetups; k++ {
			if c != nil {
				c.close()
			}
			runtime.GC()
			t0 := time.Now()
			var err error
			if c, err = startCluster(fx, rec, true); err != nil {
				return err
			}
			run.setup = append(run.setup, time.Since(t0).Seconds())
		}
		defer c.close()
		var rep *explore.Report
		root := rec.newOp("sweep.op")
		cs := root.child("client")
		err := run.log.timeSerial(func() error {
			var err error
			rep, err = c.cl.Explore(withSpan(ctx, cs), in.Grid)
			return err
		})
		cs.end()
		root.end()
		res.Attempted++
		if err == nil {
			err = checkSweep(rep, fx)
		}
		if err == nil {
			m := assetMisses(rep)
			if run.misses == nil {
				run.misses = m
			} else if !reflect.DeepEqual(m, run.misses) {
				err = fmt.Errorf("asset miss counts %v, first sweep %v", m, run.misses)
			}
		}
		if err != nil {
			res.Failed++
			res.addCheck("cold sweep", false, err.Error())
			return nil
		}
		run.last = rep
		return nil
	})
	return run, err
}

// runSweepCold measures cold design-space sweeps through the cluster:
// POST /v1/explore to an in-process coordinator over two loopback
// workers, rebuilt from the same asset bytes before every sweep. One
// client, one sweep at a time.
func runSweepCold(cfg config) (*result, error) {
	ctx := context.Background()
	in := genSweepCold(cfg.seed)
	fx, err := newSweepFixture(ctx, in)
	if err != nil {
		return nil, err
	}
	res := &result{}
	window := cfg.window()
	minOps := minSamplesFor(0.5)
	if cfg.trace {
		window, minOps = window*35/100, 3
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	run, err := coldSweeps(ctx, fx, in, res, nil, window, minOps)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if run.last != nil {
		res.addCheck("sweeps match the in-process sweep", true, fmt.Sprintf(
			"%d grid points = %d unique + %d duplicates + %d rejected; frontier %d rows",
			run.last.GridPoints, run.last.Unique, run.last.Duplicates, run.last.Rejected, len(run.last.Frontier)))
	}
	if !cfg.trace {
		res.addEndToEnd(run.setup, &run.log, rss)
		return res, nil
	}
	return traceSweepCold(ctx, cfg, in, fx, res, run)
}

// traceSweepCold follows the untraced sweeps with traced sweeps (spans
// at the client, the coordinator handler, each worker handler and each
// engine call) and a serial ladder that issues the sweep's work layer
// by layer in process, next to a serial in-process sweep of the same
// expansion, plus the coordinator hop measured on warm units.
func traceSweepCold(ctx context.Context, cfg config, in sweepInputs, fx *sweepFixture, res *result, untraced *sweepRun) (*result, error) {
	rec := newRecorder()
	traced, err := coldSweeps(ctx, fx, in, res, rec, cfg.window()*3/10, 2)
	if err != nil {
		return nil, err
	}

	ladderRec := newRecorder()
	var serialUs []float64
	var ladder ladderCounts
	start := time.Now()
	err = loopUntil(start.Add(cfg.window()*25/100), start.Add(cfg.window()), 1, func(int) error {
		runtime.GC()
		e1, err := fx.engine(1)
		if err != nil {
			return err
		}
		t0 := time.Now()
		serialRep := explore.SweepExpansion(ctx, e1, fx.ex)
		serialUs = append(serialUs, float64(time.Since(t0).Nanoseconds())/1e3)
		runtime.GC()
		lrep, counts, err := sweepLadder(ladderRec, fx, in)
		ladder = counts
		res.Attempted++
		if err == nil {
			err = sameRows(serialRep, fx.ref)
		}
		if err == nil {
			err = sameRows(lrep, fx.ref)
		}
		if err != nil {
			res.Failed++
			res.addCheck("ladder reproduces the sweep", false, err.Error())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	forwardUs, err := clusterForward(ctx, fx, 20)
	res.Attempted++
	if err != nil {
		res.Failed++
		res.addCheck("coordinator hop on warm units", false, err.Error())
	}

	spans, ladderSpans := rec.snapshot(), ladderRec.snapshot()
	rows, ops := selfTimes(spans)
	lrows, _ := selfTimes(ladderSpans)
	untracedOp := median(untraced.log.latUs)
	tracedOp := median(traced.log.latUs)
	serial := mean(serialUs)
	var ladderSum float64
	for _, n := range []string{"explore.expand", "models.build", "sim.run", "overhead.extract", "engine.compile_predict"} {
		ladderSum += layer(lrows, n).SelfUs
	}
	rep := untraced.last
	if rep == nil {
		return nil, fmt.Errorf("no sweep succeeded")
	}
	misses := untraced.misses
	res.Layers = []metric{
		{Name: "explore.expand_us", Value: layer(lrows, "explore.expand").SelfUs, Unit: "us", Samples: len(serialUs)},
		{Name: "explore.dedup_ratio", Value: float64(rep.Unique) / float64(rep.Unique+rep.Duplicates), Unit: "ratio", Samples: 1},
		{Name: "models.build_us", Value: layer(lrows, "models.build").SelfUs, Unit: "us", Samples: len(serialUs)},
		{Name: "sim.run_us", Value: layer(lrows, "sim.run").SelfUs, Unit: "us", Samples: len(serialUs)},
		{Name: "sim.runs", Value: float64(ladder.runs), Unit: "count", Samples: len(serialUs)},
		{Name: "overhead.extract_us", Value: layer(lrows, "overhead.extract").SelfUs, Unit: "us", Samples: len(serialUs)},
		{Name: "overhead.dbs", Value: float64(ladder.dbs), Unit: "count", Samples: len(serialUs)},
		{Name: "engine.compile_predict_us", Value: layer(lrows, "engine.compile_predict").SelfUs, Unit: "us", Samples: len(serialUs)},
		{Name: "engine.result_hit_ratio", Value: rep.CacheHitRate, Unit: "ratio", Samples: rep.Predicted},
		{Name: "cluster.forward_us", Value: forwardUs, Unit: "us", Samples: 1},
		{Name: "reconcile.remainder_us", Value: layer(rows, "sweep.op").SelfUs + layer(rows, "client").SelfUs, Unit: "us", Samples: ops},
		{Name: "reconcile.ladder_remainder_us", Value: serial - ladderSum, Unit: "us", Samples: len(serialUs)},
		{Name: "trace.overhead_us", Value: tracedOp - untracedOp, Unit: "us", Samples: ops},
	}
	for _, class := range []string{"calibrations", "runs", "overheads", "graphs", "plans", "results"} {
		res.Layers = append(res.Layers, metric{Name: "assets." + class + "_misses", Value: float64(misses[class]), Unit: "count", Samples: len(untraced.log.latUs)})
	}
	res.Reconcile = []reconRow{
		{Layer: "sweep.op (untraced median)", Us: untracedOp},
		{Layer: "sweep.op (traced median)", Us: tracedOp},
		{Layer: "  cluster.handler self: expand, route, aggregate", Us: layer(rows, "cluster.handler").SelfUs, Note: "time no worker handler was running"},
		{Layer: "  serve.handler self, summed over units", Us: layer(rows, "serve.handler").SelfUs, Note: "runs in parallel on 2 workers"},
		{Layer: "  engine.predict, summed over units", Us: layer(rows, "engine.predict").SelfUs, Note: "runs in parallel on 2 workers"},
		{Layer: "  remainder", Us: layer(rows, "sweep.op").SelfUs + layer(rows, "client").SelfUs, Note: "client encode/decode of the grid and report, outside the coordinator handler"},
		{Layer: "serial in-process sweep (workers=1)", Us: serial},
		{Layer: "  explore.expand", Us: layer(lrows, "explore.expand").SelfUs},
		{Layer: "  models.build", Us: layer(lrows, "models.build").SelfUs},
		{Layer: "  sim.run", Us: layer(lrows, "sim.run").SelfUs},
		{Layer: "  overhead.extract", Us: layer(lrows, "overhead.extract").SelfUs},
		{Layer: "  engine.compile_predict", Us: layer(lrows, "engine.compile_predict").SelfUs},
		{Layer: "  remainder", Us: serial - ladderSum, Note: "facade batch fan-out and explore aggregation, outside the ladder's calls"},
		{Layer: "cluster.forward per unit", Us: forwardUs, Note: "coordinator hop on a unit warm on its worker"},
	}
	res.SelfTimes = append(rows, lrows...)
	res.spans = append(spans, ladderSpans...)
	return res, nil
}

// ladderCounts is the work one serial ladder performed.
type ladderCounts struct{ runs, dbs int }

// sweepLadder issues one sweep's work serially, layer by layer, on a
// fresh engine loaded from the fixture's payloads: expansion, graph
// builds, profiled runs, overhead extraction with the runs warm, then
// the first prediction of every unique unit. It returns the report the
// predictions aggregate to.
func sweepLadder(rec *recorder, fx *sweepFixture, in sweepInputs) (*explore.Report, ladderCounts, error) {
	var counts ladderCounts
	calib := fx.cfg.Calib
	calib.IncludeCNN = true
	eng := engine.New(engine.Options{Seed: fx.cfg.Seed, SaltDeviceSeeds: true, Calib: calib, Workers: 1})
	for _, a := range fx.assets {
		if _, err := eng.LoadAssets(a); err != nil {
			return nil, counts, err
		}
	}
	root := rec.newOp("sweep.ladder")
	defer root.end()
	var ex *explore.Expansion
	var err error
	root.timed("explore.expand", func() { ex, err = explore.Expand(in.Grid) })
	if err != nil {
		return nil, counts, err
	}
	// The runs every overhead database pools: each unit's workload
	// family, and every DLRM family where a unit asks for the shared
	// database.
	perWorkload := map[string]map[string]bool{} // device -> workloads
	shared := map[string]bool{}
	for _, u := range ex.Unique {
		if perWorkload[u.Point.Device] == nil {
			perWorkload[u.Point.Device] = map[string]bool{}
		}
		perWorkload[u.Point.Device][u.Spec.Workload] = true
		if u.Point.Shared {
			shared[u.Point.Device] = true
		}
	}
	devices := sortedKeys(perWorkload)
	runSet := func(dev string) []string {
		set := map[string]bool{}
		for w := range perWorkload[dev] {
			set[w] = true
		}
		if shared[dev] {
			for _, w := range models.DLRMNames() {
				set[w] = true
			}
		}
		return sortedKeys(set)
	}
	root.timed("models.build", func() {
		for _, dev := range devices {
			for _, w := range runSet(dev) {
				for _, b := range eng.BatchesFor(w) {
					if _, e := eng.Model(w, b); e != nil && err == nil {
						err = e
					}
				}
			}
		}
	})
	for _, dev := range devices {
		for _, w := range runSet(dev) {
			for _, b := range eng.BatchesFor(w) {
				counts.runs++
				root.timed("sim.run", func() {
					if _, e := eng.Run(dev, w, b, true); e != nil && err == nil {
						err = e
					}
				})
			}
		}
	}
	for _, dev := range devices {
		for _, w := range sortedKeys(perWorkload[dev]) {
			counts.dbs++
			root.timed("overhead.extract", func() {
				if _, e := eng.OverheadDB(dev, w); e != nil && err == nil {
					err = e
				}
			})
		}
		if shared[dev] {
			counts.dbs++
			root.timed("overhead.extract", func() {
				if _, e := eng.SharedOverheadDB(dev); e != nil && err == nil {
					err = e
				}
			})
		}
	}
	if err != nil {
		return nil, counts, err
	}
	agg := explore.NewAggregator(ex)
	for i, u := range ex.Unique {
		var r engine.Result
		root.timed("engine.compile_predict", func() {
			r = eng.Predict(engine.Request{Device: u.Point.Device, Scenario: u.Spec, Shared: u.Point.Shared})
		})
		o := explore.Outcome{E2EUs: r.Prediction.E2E, ScalingEfficiency: r.ScalingEfficiency()}
		if r.Err != nil {
			o.Err = r.Err.Error()
		}
		agg.Add(i, o)
	}
	return agg.Report(0), counts, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// clusterForward measures the coordinator hop: on a cluster whose
// coordinator forwards every request, a sample of units is made warm on
// the workers, then each is fetched alternately through the coordinator
// and directly from the worker that owns its device. It returns the mean
// difference per request, in microseconds.
func clusterForward(ctx context.Context, fx *sweepFixture, reps int) (float64, error) {
	c, err := startCluster(fx, nil, false)
	if err != nil {
		return 0, err
	}
	defer c.close()
	const sample = 48
	step := max(len(fx.ex.Unique)/sample, 1)
	var reqs []serve.Request
	direct := map[string]*client.Client{}
	var owners []*client.Client
	for i := 0; i < len(fx.ex.Unique) && len(reqs) < sample; i += step {
		u := fx.ex.Unique[i]
		req := serve.WireRequest(u.Point, 0)
		if _, err := c.cl.Predict(ctx, req); err != nil {
			return 0, err
		}
		owner := cluster.Rank(c.reg.Live(), u.Point.Device)[0].URL
		if direct[owner] == nil {
			direct[owner] = newClient(owner, 1)
		}
		reqs = append(reqs, req)
		owners = append(owners, direct[owner])
	}
	var viaCoord, viaWorker time.Duration
	for r := 0; r < reps; r++ {
		for i, req := range reqs {
			t0 := time.Now()
			a, err := c.cl.Predict(ctx, req)
			t1 := time.Now()
			b, err2 := owners[i].Predict(ctx, req)
			t2 := time.Now()
			if err == nil {
				err = err2
			}
			if err == nil && (math.Float64bits(a.E2EUs) != math.Float64bits(b.E2EUs) || !b.CacheHit) {
				err = fmt.Errorf("%+v: coordinator %v, worker %v (hit %v)", req, a.E2EUs, b.E2EUs, b.CacheHit)
			}
			if err != nil {
				return 0, err
			}
			viaCoord += t1.Sub(t0)
			viaWorker += t2.Sub(t1)
		}
	}
	n := float64(reps * len(reqs))
	return float64((viaCoord - viaWorker).Nanoseconds()) / 1e3 / n, nil
}
