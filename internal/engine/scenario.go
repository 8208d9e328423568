package engine

import (
	"context"
	"fmt"

	"dlrmperf/internal/models"
	"dlrmperf/internal/overhead"
	"dlrmperf/internal/predict"
	"dlrmperf/internal/scenario"
	"dlrmperf/internal/workload"
)

// predictScenario computes one request that missed the result cache.
// The steady-state path resolves the request to a CompiledPlan —
// memoized in the plans class under the request key — and executes it:
// plan lookup + arithmetic, with zero graph reconstruction, zero shard
// re-planning, and zero key formatting beyond one pooled-buffer
// append. The DisableCompiledPlans ablation re-resolves everything per
// request (the historical path the bit-identity tests compare
// against); both paths end in identical predictor calls on identical
// inputs, so their results are bit-identical.
func (e *Engine) predictScenario(req Request) (cached, error) {
	if e.opts.DisableCompiledPlans {
		return e.predictUncompiled(req)
	}
	kb := pooledKey("plan/", &req)
	pl, _, err := cachedFlight(context.Background(), e, e.store.class(classPlan), *kb, req, (*Engine).compile)
	keyBufPool.Put(kb)
	if err != nil {
		return cached{}, err
	}
	return pl.execute()
}

// predictUncompiled is the per-request resolution path: compile the
// request from scratch (graphs still memoize in the graphs class, as
// they always did) and execute the transient plan without storing it.
func (e *Engine) predictUncompiled(req Request) (cached, error) {
	pl, err := e.compile(req)
	if err != nil {
		return cached{}, err
	}
	return pl.execute()
}

// scenarioPredictor assembles the device's predictor for a request:
// calibrated kernel models plus the requested overhead database.
func (e *Engine) scenarioPredictor(req Request) (*predict.Predictor, error) {
	cal, err := e.Calibration(req.Device)
	if err != nil {
		return nil, err
	}
	var db *overhead.DB
	if req.Shared {
		db, err = e.SharedOverheadDB(req.Device)
	} else {
		db, err = e.OverheadDB(req.Device, req.Scenario.Workload)
	}
	if err != nil {
		return nil, err
	}
	return predict.New(cal.Registry, db), nil
}

// scenarioModel returns the single-device execution graph of a spec;
// custom table populations are memoized under the scenario fingerprint.
func (e *Engine) scenarioModel(spec scenario.Spec) (*models.Model, error) {
	if len(spec.Tables) == 0 {
		return e.Model(spec.Workload, spec.Batch)
	}
	return memo(e, classGraph, "graph/"+spec.Fingerprint(), spec, buildTables)
}

// buildTables builds a DLRM family's graph at spec's batch, specialized
// to spec's table population — the builder models one pooling factor
// and skew, so heterogeneous populations contribute their means.
func buildTables(_ *Engine, spec scenario.Spec) (*models.Model, error) {
	cfg, err := models.DLRMConfigFor(spec.Workload, spec.Batch)
	if err != nil {
		return nil, fmt.Errorf("scenario: custom tables need a DLRM family: %w", err)
	}
	cfg.EmbRows = workload.Rows(spec.Tables)
	cfg.Lookups = workload.MeanLookups(spec.Tables)
	cfg.ZipfSkew = workload.MeanSkew(spec.Tables)
	return models.BuildDLRM(cfg)
}
