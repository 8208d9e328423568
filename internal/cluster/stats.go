package cluster

import (
	"dlrmperf"
	"dlrmperf/internal/serve"
)

// Accounting model. The cluster-wide invariant mirrors the per-process
// one — Cache.Hits + Cache.Misses + Rejected.Total() == Requests at
// quiescence — but over ATTEMPT accounting: the aggregated request
// total is defined as the sum of every accounted attempt, not the
// coordinator's client-facing received count (which CoordinatorStats
// reports separately). Each attempt lands in exactly one bucket:
//
//   - a request served by a worker is that worker's request, counted
//     (with its hit/miss/rejection verdict) in the worker's own /stats
//     and merged from there;
//   - a request answered from the coordinator's pass-through result
//     cache never reaches a worker and is counted once as a
//     coordinator local hit (in both Cache.Hits and Requests);
//   - a routing attempt that failed (dead socket, 5xx) is counted once
//     under Rejected.WorkerFailed — whether or not the retry on the
//     next-ranked candidate then succeeded (that retry is a separate,
//     worker-accounted attempt). A request that fails over therefore
//     contributes two accounted attempts: one failed, one served.
//   - requests refused at the coordinator (draining, no live workers)
//     land in the Draining/NoWorkers buckets.
//
// Workers whose /stats fetch fails are excluded from the merge
// entirely — both their buckets and their request totals — so the
// identity survives worker death: a killed worker takes both sides of
// its contribution with it.

// CoordinatorStats are the coordinator's own counters, client-facing:
// Received counts client requests (each once, however many attempts
// its routing took), LocalCacheHits the subset answered from the
// pass-through result cache without touching a worker.
type CoordinatorStats struct {
	Received       uint64 `json:"received"`
	LocalCacheHits uint64 `json:"local_cache_hits"`
	// Migrations counts completed warm asset hand-offs (dead home's
	// assets installed on a device's new rendezvous owner);
	// MigrationFailures counts installs that failed, where the new home
	// proceeded cold. Hand-offs are control plane, not requests: they
	// join no side of the accounting invariant.
	Migrations        uint64 `json:"migrations,omitempty"`
	MigrationFailures uint64 `json:"migration_failures,omitempty"`
	// PeerResultsInstalled counts result rows this coordinator accepted
	// from peer gossip into its local pass-through cache — the signal
	// that replication landed, observable without a cache-polluting
	// probe query. Control plane: moves no request counters.
	PeerResultsInstalled uint64 `json:"peer_results_installed,omitempty"`
}

// WorkerStatus is one worker's row in the aggregated stats: its
// registry state, how many attempts the coordinator routed to it, and
// its own /stats snapshot (nil, with StatsError set, when the fetch
// failed — such workers are excluded from the aggregate sums).
type WorkerStatus struct {
	WorkerInfo
	Routed     uint64       `json:"routed"`
	Stats      *serve.Stats `json:"stats,omitempty"`
	StatsError string       `json:"stats_error,omitempty"`
}

// Stats is the coordinator's GET /stats document: the worker's
// serve.Stats, holding the cluster-wide counters merged under the
// attempt accounting above, plus the coordinator-only sections. The
// embedded fields are promoted in JSON, so the document decodes into
// serve.Stats too. The merge sums the workers' counters, except
// Latency and the Queue gauges other than InFlight, which stay zero
// (each worker's own are in its Workers row). Calibrations sums their
// device -> runs maps, while each worker's own ledger stays in its
// Workers row too. Tenants are worker-side fair-queue counters:
// requests answered from the coordinator's pass-through cache appear
// only in Coordinator.LocalCacheHits.
type Stats struct {
	serve.Stats
	Coordinator CoordinatorStats `json:"coordinator"`
	// Lease is the replicated-control-plane membership view (nil in
	// single-coordinator mode); Vault the replicated per-device asset
	// copies backing warm hand-off on failover.
	Lease   *LeaseStatus           `json:"lease,omitempty"`
	Vault   map[string]VaultStatus `json:"asset_vault,omitempty"`
	Workers []WorkerStatus         `json:"workers"`
}

// mergeWorker folds one worker's snapshot into the aggregate. Both
// sides of the invariant move together: the worker's buckets into
// Cache/Rejected, its request total into Requests.
func (s *Stats) mergeWorker(ws serve.Stats) {
	s.Requests += ws.Requests
	s.Cache.Hits += ws.Cache.Hits
	s.Cache.Misses += ws.Cache.Misses
	s.Cache.Rejected += ws.Cache.Rejected
	s.Rejected.Validation += ws.Rejected.Validation
	s.Rejected.QueueFull += ws.Rejected.QueueFull
	s.Rejected.TenantLimited += ws.Rejected.TenantLimited
	s.Rejected.Draining += ws.Rejected.Draining
	s.Rejected.Canceled += ws.Rejected.Canceled
	s.Served += ws.Served
	s.Canceled += ws.Canceled
	s.Queue.InFlight += ws.Queue.InFlight
	mergeAssets(&s.Assets, ws.Assets)
	for d, n := range ws.Calibrations {
		if s.Calibrations == nil {
			s.Calibrations = map[string]int{}
		}
		s.Calibrations[d] += n
	}
	for name, ts := range ws.Tenants {
		if s.Tenants == nil {
			s.Tenants = map[string]serve.TenantStats{}
		}
		agg := s.Tenants[name]
		agg.Requests += ts.Requests
		agg.Served += ts.Served
		agg.Shed += ts.Shed
		agg.Canceled += ts.Canceled
		agg.Queued += ts.Queued
		agg.TotalWaitUs += ts.TotalWaitUs
		if ts.MaxWaitUs > agg.MaxWaitUs {
			agg.MaxWaitUs = ts.MaxWaitUs
		}
		if agg.Served > 0 {
			agg.AvgWaitUs = float64(agg.TotalWaitUs) / float64(agg.Served)
		}
		s.Tenants[name] = agg
	}
}

// mergeAssets sums a worker's per-class asset counters into the
// aggregate, matching classes by name (order-preserving on first
// sight, so the merged report keeps the engine's class order).
func mergeAssets(dst *dlrmperf.AssetStats, src dlrmperf.AssetStats) {
	for _, c := range src.Classes {
		found := false
		for i := range dst.Classes {
			if dst.Classes[i].Class == c.Class {
				dst.Classes[i].Resident += c.Resident
				dst.Classes[i].Capacity += c.Capacity
				dst.Classes[i].Bytes += c.Bytes
				dst.Classes[i].Hits += c.Hits
				dst.Classes[i].Misses += c.Misses
				dst.Classes[i].Evictions += c.Evictions
				found = true
				break
			}
		}
		if !found {
			dst.Classes = append(dst.Classes, c)
		}
	}
	dst.TotalBytes += src.TotalBytes
}
