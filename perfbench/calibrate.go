package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dlrmperf"
	"dlrmperf/internal/engine"
	"dlrmperf/internal/experiments"
	"dlrmperf/internal/hw"
	"dlrmperf/internal/kernels"
	"dlrmperf/internal/microbench"
	"dlrmperf/internal/mlp"
	"dlrmperf/internal/perfmodel"
	"dlrmperf/internal/stats"
)

// calibOptions is the BenchmarkCalibrateParallel preset: quarter-size
// microbenchmark sweeps, an ensemble of 2, and a 2x48 MLP trained for
// 45 epochs with Adam. The seed is set per use.
func calibOptions() perfmodel.CalibOptions {
	sizes := map[kernels.Kind]int{}
	for k, n := range microbench.DefaultSweepSizes() {
		sizes[k] = n / 4
	}
	return perfmodel.CalibOptions{
		SweepSizes: sizes, Ensemble: 2, IncludeCNN: true,
		MLPConfig: mlp.Config{HiddenLayers: 2, Width: 48, Optimizer: mlp.Adam, LR: 3e-3, Epochs: 45, BatchSize: 64},
	}
}

// The accuracy of the preset is measured at the paper's seed, where its
// Table V figures are known. Accuracy that grows worse than these (in
// percent, to their printed precision) fails the run.
const accuracySeed = 2022

var expectedAccuracy = []struct {
	name string
	pct  float64
}{
	{"kernel_gmae_pct", 5.83},
	{"active_gmae_pct", 1.43},
	{"e2e_gmae_pct", 4.56},
	{"shared_e2e_gmae_pct", 4.52},
}

// accuracyTolerance is half a unit of the expected values' last digit.
const accuracyTolerance = 0.005

// runCalibrate times cold starts: the op is one fresh engine's first
// prediction, which calibrates the device, simulates and profiles the
// runs of the workload, extracts its overheads, compiles the plan and
// predicts. Ops run serially (one client), cycling through the devices.
func runCalibrate(cfg config) (*result, error) {
	in := genCalibrate(cfg.seed)
	res := &result{}
	if cfg.trace {
		return traceCalibrate(cfg, in, res)
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	start := time.Now()
	var log opLog
	var setup []float64
	first := map[string]float64{}
	err := loopUntil(start.Add(cfg.window()), hardStop(start, cfg.window()), minSamplesFor(0.5), func(i int) error {
		e2e, setupDur, err := coldStart(in, i, &log)
		setup = append(setup, setupDur.Seconds())
		res.Attempted++
		if !checkColdStart(res, first, in.Devices[i%len(in.Devices)], e2e, err) {
			res.Failed++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.addEndToEnd(setup, &log, rss)
	acc, err := accuracy()
	if err != nil {
		res.addCheck("accuracy", false, err.Error())
		return res, nil
	}
	for _, e := range expectedAccuracy {
		got := acc[e.name]
		res.Metrics = append(res.Metrics, metric{Name: e.name, Value: got, Unit: "%", Samples: 1})
		res.addCheck("accuracy "+e.name, got <= e.pct+accuracyTolerance,
			fmt.Sprintf("%.4f%% at seed %d, expected at most %.2f%%", got, accuracySeed, e.pct))
	}
	return res, nil
}

// coldStart runs op i: device i mod 3, a fresh engine built untimed
// (its construction is the op's set-up), then the timed first Predict.
func coldStart(in calibInputs, i int, log *opLog) (e2e float64, setup time.Duration, err error) {
	runtime.GC()
	req := in.Request
	req.Device = in.Devices[i%len(in.Devices)]
	t0 := time.Now()
	eng, err := dlrmperf.NewEngineWith(dlrmperf.EngineConfig{Seed: in.EngineSeed, Calib: calibOptions()})
	setup = time.Since(t0)
	if err != nil {
		return 0, setup, err
	}
	var r dlrmperf.PredictResult
	err = log.timeSerial(func() error {
		r = eng.Predict(req)
		return r.Err
	})
	if err == nil && eng.CalibrationRuns(req.Device) != 1 {
		err = fmt.Errorf("%s calibrated %d times", req.Device, eng.CalibrationRuns(req.Device))
	}
	return r.Prediction.E2EUs, setup, err
}

// checkColdStart verifies one cold start: no error, a positive
// prediction, and bit-identity with every earlier cold start of the same
// device at the same seed.
func checkColdStart(res *result, first map[string]float64, dev string, e2e float64, err error) bool {
	name := "cold start " + dev + " repeats bit-identically"
	switch {
	case err != nil:
		res.addCheck(name, false, err.Error())
		return false
	case !(e2e > 0):
		res.addCheck(name, false, fmt.Sprintf("non-positive prediction %v", e2e))
		return false
	}
	ref, seen := first[dev]
	if !seen {
		first[dev] = e2e
		res.addCheck(name, true, fmt.Sprintf("e2e_us=%v", e2e))
		return true
	}
	if math.Float64bits(ref) != math.Float64bits(e2e) {
		res.addCheck(name, false, fmt.Sprintf("e2e_us %v differs from first cold start %v", e2e, ref))
		return false
	}
	return true
}

// accuracy evaluates the preset at accuracySeed: the geomean of the
// Table IV kernel-model GMAEs over every row and device, and the
// overall Table V geomean errors, in percent.
func accuracy() (map[string]float64, error) {
	opt := calibOptions()
	suite := experiments.NewSuite(experiments.Options{Seed: accuracySeed, Calib: opt})
	cells, err := suite.Table04()
	if err != nil {
		return nil, err
	}
	var g []float64
	for _, c := range cells {
		g = append(g, c.Summary.GMAE)
	}
	rows, err := suite.Fig09()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"kernel_gmae_pct": 100 * stats.Geomean(g)}
	names := map[string]string{"Active": "active_gmae_pct", "E2E": "e2e_gmae_pct", "Shared E2E": "shared_e2e_gmae_pct"}
	for _, r := range experiments.Table05(rows) {
		if n, ok := names[r.Metric]; ok && r.Device == "Overall" {
			out[n] = 100 * r.Geomean
		}
	}
	return out, nil
}

// --- traced run ----------------------------------------------------------------

// traceCalibrate splits the window in three: untraced cold starts (the
// reference op time), traced cold starts whose work is issued layer by
// layer with a span around each call, and a serial ladder that replays
// the calibration plan one family job at a time next to a serial
// calibration of the same device, so the parallel overlap inside the
// op is not mistaken for a remainder.
func traceCalibrate(cfg config, in calibInputs, res *result) (*result, error) {
	w := cfg.window()
	start := time.Now()
	var untraced opLog
	first := map[string]float64{}
	err := loopUntil(start.Add(w*3/10), start.Add(w), len(in.Devices), func(i int) error {
		e2e, _, err := coldStart(in, i, &untraced)
		res.Attempted++
		if !checkColdStart(res, first, in.Devices[i%len(in.Devices)], e2e, err) {
			res.Failed++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	opRec := newRecorder()
	start = time.Now()
	err = loopUntil(start.Add(w*3/10), start.Add(w), len(in.Devices), func(i int) error {
		dev := in.Devices[i%len(in.Devices)]
		e2e, err := tracedColdStart(opRec, in, dev)
		res.Attempted++
		if err == nil && math.Float64bits(e2e) != math.Float64bits(first[dev]) {
			err = fmt.Errorf("traced cold start %v differs from untraced %v", e2e, first[dev])
		}
		if err != nil {
			res.Failed++
			res.addCheck("traced cold start "+dev, false, err.Error())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ladderRec := newRecorder()
	var serialUs, trainAllocs []float64
	var kernelsPerLadder int
	start = time.Now()
	err = loopUntil(start.Add(w*4/10), start.Add(w), 1, func(i int) error {
		dev := in.Devices[i%len(in.Devices)]
		p, err := hw.ByName(dev)
		if err != nil {
			return err
		}
		opt := calibOptions()
		opt.Seed = in.EngineSeed + engine.DeviceSalt(dev)
		runtime.GC()
		t0 := time.Now()
		ref := perfmodel.Calibrate(p.GPU, opt)
		serialUs = append(serialUs, float64(time.Since(t0).Nanoseconds())/1e3)
		runtime.GC()
		evals, n, allocs := calibLadder(ladderRec, p.GPU, opt)
		kernelsPerLadder = n
		trainAllocs = append(trainAllocs, allocs)
		res.Attempted++
		if d := diffEvals(ref.Evals, evals); d != "" {
			res.Failed++
			res.addCheck("ladder reproduces the calibration plan on "+dev, false, d)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	opSpans, ladderSpans := opRec.snapshot(), ladderRec.snapshot()
	opRows, ops := selfTimes(opSpans)
	ladderRows, _ := selfTimes(ladderSpans)
	tracedOp := median(opDurationsUs(opSpans, "calibrate.op"))
	untracedOp := median(untraced.latUs)
	serial := mean(serialUs)
	collect, train, fit := layer(ladderRows, "microbench.collect").SelfUs, layer(ladderRows, "mlp.train").SelfUs, layer(ladderRows, "perfmodel.fit").SelfUs
	ladderRemainder := serial - collect - train - fit
	parallel := layer(opRows, "perfmodel.calibrate").WallUs

	res.Layers = []metric{
		{Name: "microbench.collect_us", Value: collect, Unit: "us", Samples: len(serialUs)},
		{Name: "microbench.kernels", Value: float64(kernelsPerLadder), Unit: "count", Samples: len(serialUs)},
		{Name: "mlp.train_us", Value: train, Unit: "us", Samples: len(serialUs)},
		{Name: "mlp.allocs_per_train", Value: mean(trainAllocs), Unit: "count", Samples: len(trainAllocs)},
		{Name: "perfmodel.self_us", Value: fit, Unit: "us", Samples: len(serialUs)},
		{Name: "perfmodel.calibrate_us", Value: parallel, Unit: "us", Samples: ops},
		{Name: "perfmodel.serial_us", Value: serial, Unit: "us", Samples: len(serialUs)},
		{Name: "models.build_us", Value: layer(opRows, "models.build").SelfUs, Unit: "us", Samples: ops},
		{Name: "sim.run_us", Value: layer(opRows, "sim.run").SelfUs, Unit: "us", Samples: ops},
		{Name: "sim.runs", Value: perOp(layer(opRows, "sim.run").Calls, ops), Unit: "count", Samples: ops},
		{Name: "overhead.extract_us", Value: layer(opRows, "overhead.extract").SelfUs, Unit: "us", Samples: ops},
		{Name: "overhead.dbs", Value: perOp(layer(opRows, "overhead.extract").Calls, ops), Unit: "count", Samples: ops},
		{Name: "engine.compile_predict_us", Value: layer(opRows, "engine.compile_predict").SelfUs, Unit: "us", Samples: ops},
		{Name: "reconcile.remainder_us", Value: layer(opRows, "calibrate.op").SelfUs, Unit: "us", Samples: ops},
		{Name: "reconcile.ladder_remainder_us", Value: ladderRemainder, Unit: "us", Samples: len(serialUs)},
		{Name: "trace.overhead_us", Value: tracedOp - untracedOp, Unit: "us", Samples: ops},
	}
	res.Reconcile = []reconRow{
		{Layer: "calibrate.op (untraced median)", Us: untracedOp},
		{Layer: "calibrate.op (traced median)", Us: tracedOp},
		{Layer: "  models.build", Us: layer(opRows, "models.build").SelfUs},
		{Layer: "  perfmodel.calibrate (parallel)", Us: parallel},
		{Layer: "  sim.run", Us: layer(opRows, "sim.run").SelfUs},
		{Layer: "  overhead.extract", Us: layer(opRows, "overhead.extract").SelfUs},
		{Layer: "  engine.compile_predict", Us: layer(opRows, "engine.compile_predict").SelfUs},
		{Layer: "  remainder", Us: layer(opRows, "calibrate.op").SelfUs, Note: "glue between the layer calls (engine construction is set-up, outside the op)"},
		{Layer: "perfmodel.serial (workers=1)", Us: serial},
		{Layer: "  microbench.collect", Us: collect},
		{Layer: "  mlp.train", Us: train},
		{Layer: "  perfmodel.fit (split, heuristic fits, evaluation)", Us: fit},
		{Layer: "  remainder", Us: ladderRemainder, Note: "plan set-up and result merge inside perfmodel, plus timer noise"},
		{Layer: "parallel overlap (serial - parallel)", Us: serial - parallel, Note: "work overlapped by the calibration worker pool; not a remainder"},
	}
	res.SelfTimes = append(opRows, ladderRows...)
	res.spans = append(opSpans, ladderSpans...)
	return res, nil
}

// tracedColdStart issues the cold start's work as separate calls into
// each layer, in the order the engine's first Predict performs it,
// with a span around each call. It returns the prediction.
func tracedColdStart(rec *recorder, in calibInputs, dev string) (float64, error) {
	runtime.GC()
	spec, err := in.Request.ResolveSpec()
	if err != nil {
		return 0, err
	}
	eng := engine.New(engine.Options{Seed: in.EngineSeed, SaltDeviceSeeds: true, Calib: calibOptions()})
	root := rec.newOp("calibrate.op")
	defer root.end()
	batches := eng.BatchesFor(spec.Workload)
	root.timed("models.build", func() {
		for _, b := range append([]int64{spec.Batch}, batches...) {
			if _, e := eng.Model(spec.Workload, b); e != nil && err == nil {
				err = e
			}
		}
	})
	root.timed("perfmodel.calibrate", func() {
		if _, e := eng.Calibration(dev); e != nil && err == nil {
			err = e
		}
	})
	for _, b := range batches {
		root.timed("sim.run", func() {
			if _, e := eng.Run(dev, spec.Workload, b, true); e != nil && err == nil {
				err = e
			}
		})
	}
	root.timed("overhead.extract", func() {
		if _, e := eng.OverheadDB(dev, spec.Workload); e != nil && err == nil {
			err = e
		}
	})
	var r engine.Result
	root.timed("engine.compile_predict", func() {
		r = eng.Predict(engine.Request{Device: dev, Scenario: spec})
	})
	if err != nil {
		return 0, err
	}
	return r.Prediction.E2E, r.Err
}

// ladderJob mirrors one family job of the calibration plan, in plan
// order: its Table IV row, kernel kind and model type, and for roofline
// models the share of the GPU's FP32 peak the fit starts from. The plan
// is private to perfmodel (calibrationPlan), so ladderJobs,
// planSeedStride and calibLadder's split repeat it; a change to the plan
// makes the Table IV check fail until this copy follows (see README.md).
type ladderJob struct {
	row      string
	kind     kernels.Kind
	model    string // "el", "roofline" or "mlp"
	peakFrac float64
}

var ladderJobs = []ladderJob{
	{"EL-F", kernels.KindEmbeddingFwd, "el", 0},
	{"EL-B", kernels.KindEmbeddingBwd, "el", 0},
	{"concat", kernels.KindConcat, "roofline", 0},
	{"memcpy", kernels.KindMemcpyH2D, "roofline", 0},
	{"GEMM", kernels.KindGEMM, "mlp", 0},
	{"transpose", kernels.KindTranspose, "mlp", 0},
	{"tril-F", kernels.KindTrilFwd, "mlp", 0},
	{"tril-B", kernels.KindTrilBwd, "mlp", 0},
	{"elementwise", kernels.KindElementwise, "roofline", 0.5},
	{"conv", kernels.KindConv, "mlp", 0},
	{"batchnorm", kernels.KindBatchNorm, "roofline", 0},
}

// planSeedStride is the calibration plan's per-family seed increment:
// family job i draws from seed + planSeedStride*(i+1).
const planSeedStride = 101

// calibLadder replays the calibration plan serially through the public
// per-layer functions — microbenchmark collection, the heuristic and
// roofline fits, MLP training, evaluation — with a span around each
// call. It returns the Table IV evaluations it produced (which must
// equal the calibration's own), the number of kernels collected, and
// the heap allocations per trained network.
func calibLadder(rec *recorder, gpu hw.GPU, opt perfmodel.CalibOptions) ([]perfmodel.KernelEval, int, float64) {
	const trainFrac = 0.8
	root := rec.newOp("calibrate.ladder")
	defer root.end()
	var evals []perfmodel.KernelEval
	kernelsCollected := 0
	var allocs uint64
	trained := 0
	seed := opt.Seed
	for _, j := range ladderJobs {
		seed += planSeedStride
		n := opt.SweepSizes[j.kind]
		if n <= 0 {
			n = 400
		}
		kernelsCollected += n
		var ds *microbench.Dataset
		root.timed("microbench.collect", func() { ds = microbench.CollectKind(gpu, j.kind, n, seed) })
		fit := root.child("perfmodel.fit")
		train, test := ds.Split(trainFrac, seed*31+7)
		switch j.model {
		case "el":
			large := test.Filter(perfmodel.IsLargeTable)
			plain := perfmodel.CalibrateEL(j.row, gpu, train, false)
			enhanced := perfmodel.CalibrateEL(j.row+"H", gpu, train, true)
			evals = append(evals,
				perfmodel.KernelEval{Row: j.row, Summary: perfmodel.Evaluate(plain, test)},
				perfmodel.KernelEval{Row: j.row + "L", Summary: perfmodel.Evaluate(plain, large)},
				perfmodel.KernelEval{Row: j.row + "H", Summary: perfmodel.Evaluate(enhanced, test)},
				perfmodel.KernelEval{Row: j.row + "HL", Summary: perfmodel.Evaluate(enhanced, large)})
			fit.end()
		case "roofline":
			m := perfmodel.CalibrateRoofline(j.row, train, gpu.PeakFP32*j.peakFrac)
			evals = append(evals, perfmodel.KernelEval{Row: j.row, Summary: perfmodel.Evaluate(m, test)})
			fit.end()
		case "mlp":
			fit.end()
			var m *perfmodel.MLPModel
			a0 := mallocs()
			root.timed("mlp.train", func() {
				m = perfmodel.TrainMLP(j.row, train, gpu.PeakFP32, gpu.DRAMBandwidth, opt.MLPConfig, opt.Ensemble, seed)
			})
			allocs += mallocs() - a0
			trained += opt.Ensemble
			root.timed("perfmodel.fit", func() {
				evals = append(evals, perfmodel.KernelEval{Row: j.row, Summary: perfmodel.Evaluate(m, test)})
			})
		}
	}
	return evals, kernelsCollected, float64(allocs) / float64(max(trained, 1))
}

// diffEvals describes the first difference between two Table IV row
// lists ("" when they are identical).
func diffEvals(want, got []perfmodel.KernelEval) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("row %s: %+v, want %+v", got[i].Row, got[i].Summary, want[i].Summary)
		}
	}
	return ""
}

func perOp(calls, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(calls) / float64(ops)
}
