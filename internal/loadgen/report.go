package loadgen

// LatencyQuantiles summarizes a latency distribution in microseconds.
type LatencyQuantiles struct {
	P50    int64   `json:"p50_us"`
	P95    int64   `json:"p95_us"`
	P99    int64   `json:"p99_us"`
	Max    int64   `json:"max_us"`
	MeanUs float64 `json:"mean_us"`
}

// TenantReport is one tenant's SLO accounting for the run.
type TenantReport struct {
	Name      string  `json:"name"`
	Priority  string  `json:"priority,omitempty"`
	TargetRPS float64 `json:"target_rps,omitempty"`
	// Scheduled counts clock ticks; Missed the ticks turned away by the
	// in-flight bound; Sent = Scheduled - Missed actually dispatched.
	Scheduled uint64 `json:"scheduled"`
	Missed    uint64 `json:"missed"`
	Sent      uint64 `json:"sent"`
	// OK are clean 200 rows; AppErrors rows the server computed but
	// failed (validation, deadline); Shed the 429/503 rejections by
	// error code; Transport dial/stream failures; Other any remaining
	// non-2xx.
	OK           uint64            `json:"ok"`
	AppErrors    uint64            `json:"app_errors"`
	Shed         map[string]uint64 `json:"shed,omitempty"`
	ShedTotal    uint64            `json:"shed_total"`
	ShedRate     float64           `json:"shed_rate"`
	Transport    uint64            `json:"transport_errors"`
	Other        uint64            `json:"other_errors"`
	CacheHits    uint64            `json:"cache_hits"`
	CacheHitRate float64           `json:"cache_hit_rate"`
	// AchievedRPS divides OK by the tenant's active window, its first
	// send to its last completion; in Totals, by the run's wall time.
	AchievedRPS float64 `json:"achieved_rps"`
	// Latency covers OK rows only, end to end as the client saw it;
	// the queue-wait fields echo the server's own admission-wait stamp.
	Latency        LatencyQuantiles `json:"latency"`
	AvgQueueWaitUs float64          `json:"avg_queue_wait_us,omitempty"`
	MaxQueueWaitUs int64            `json:"max_queue_wait_us,omitempty"`
}

// Report is the JSON document one load run produces.
type Report struct {
	Target       string         `json:"target"`
	Seed         int64          `json:"seed"`
	ZipfSkew     float64        `json:"zipf_skew"`
	DurationSecs float64        `json:"duration_secs"`
	Totals       TenantReport   `json:"totals"`
	Tenants      []TenantReport `json:"tenants"`
	// Server is the target's own post-run accounting (set when the
	// invariant check ran).
	Server *ServerStats `json:"server,omitempty"`
}

// BenchSample mirrors cmd/benchdiff's Sample shape so the load report
// can join the ratcheting benchmark gate without importing main
// packages.
type BenchSample struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// BenchSuite mirrors cmd/benchdiff's Suite shape.
type BenchSuite struct {
	Benchmarks map[string]BenchSample `json:"benchmarks"`
}

// BenchSuite renders the run's latency quantiles as a benchdiff suite:
// one pseudo-benchmark per quantile, nanoseconds in NsPerOp, the
// alloc metrics marked absent (-1) exactly as benchdiff's parser does
// for unmeasured columns.
func (r *Report) BenchSuite() BenchSuite {
	mk := func(us int64) BenchSample {
		return BenchSample{NsPerOp: float64(us) * 1e3, BytesPerOp: -1, AllocsPerOp: -1, Samples: int(r.Totals.OK)}
	}
	return BenchSuite{Benchmarks: map[string]BenchSample{
		"LoadgenLatencyP50": mk(r.Totals.Latency.P50),
		"LoadgenLatencyP95": mk(r.Totals.Latency.P95),
		"LoadgenLatencyP99": mk(r.Totals.Latency.P99),
	}}
}
