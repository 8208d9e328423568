// Command perfbench is the repository's end-to-end benchmark. It drives
// the public functions of the engine, serving, client, cluster, explore
// and calibration layers from outside, on three workloads generated
// from one seed, and checks every output it times. See README.md.
//
//	perfbench -workload calibrate|serve-hot|sweep-cold -seed N -seconds S -trace 0|1
//	perfbench compare old.json new.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1). The lines before it are a readable
// report, and the full result, with its host fingerprint and sample
// counts, is written under -results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// metric is one named measurement with its unit and sample count.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// check is one correctness verdict of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// reconRow is one line of a reconcile report: a layer's self time per
// op, or the named remainder.
type reconRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us_per_op"`
	Note  string  `json:"note,omitempty"`
}

// result is everything one run measured.
type result struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Seconds   int         `json:"seconds"`
	Trace     bool        `json:"trace"`
	Host      hostInfo    `json:"host"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Checks    []check     `json:"checks"`
	Metrics   []metric    `json:"metrics"`
	Layers    []metric    `json:"layers,omitempty"`
	Reconcile []reconRow  `json:"reconcile,omitempty"`
	SelfTimes []layerTime `json:"self_times,omitempty"`

	spans []span
}

func (r *result) addCheck(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

// addEndToEnd records the end-to-end metrics of a trace-0 run: the
// median set-up, the op log's timing metrics, the peak RSS, and the
// error share of the ops attempted.
func (r *result) addEndToEnd(setup []float64, log *opLog, rssMB float64) {
	r.Metrics = append(r.Metrics, metric{Name: "setup_s", Value: median(setup), Unit: "s", Samples: len(setup)})
	r.Metrics = append(r.Metrics, log.timingMetrics()...)
	r.Metrics = append(r.Metrics,
		metric{Name: "peak_rss_mb", Value: rssMB, Unit: "MB", Samples: 1},
		metric{Name: "error_pct", Value: errorPct(r), Unit: "%", Samples: r.Attempted})
}

func (r *result) correct() bool {
	if r.Failed != 0 || r.Attempted == 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// endToEnd lists the metrics every workload reports with -trace 0, in
// BENCHMARK.json order.
var endToEnd = []string{"setup_s", "ops_per_s", "p50_us", "cpu_us_per_op", "peak_rss_mb"}

// perLayer lists the metrics every workload reports with -trace 1. A
// layer a workload does not exercise reads 0 on it.
var perLayer = []struct{ name, unit string }{
	{"microbench.collect_us", "us"},
	{"microbench.kernels", "count"},
	{"mlp.train_us", "us"},
	{"mlp.allocs_per_train", "count"},
	{"perfmodel.self_us", "us"},
	{"perfmodel.calibrate_us", "us"},
	{"perfmodel.serial_us", "us"},
	{"models.build_us", "us"},
	{"sim.run_us", "us"},
	{"sim.runs", "count"},
	{"overhead.extract_us", "us"},
	{"overhead.dbs", "count"},
	{"engine.compile_predict_us", "us"},
	{"engine.result_hit_ratio", "ratio"},
	{"explore.expand_us", "us"},
	{"explore.dedup_ratio", "ratio"},
	{"assets.calibrations_misses", "count"},
	{"assets.runs_misses", "count"},
	{"assets.overheads_misses", "count"},
	{"assets.graphs_misses", "count"},
	{"assets.plans_misses", "count"},
	{"assets.results_misses", "count"},
	{"cluster.forward_us", "us"},
	{"engine.hit_us", "us"},
	{"engine.allocs_per_hit", "count"},
	{"engine.hit_ratio", "ratio"},
	{"serve.admit_self_us", "us"},
	{"serve.queue_wait_us", "us"},
	{"serve.http_self_us", "us"},
	{"serve.allocs_per_op", "count"},
	{"serve.rejected", "count"},
	{"reconcile.remainder_us", "us"},
	{"reconcile.ladder_remainder_us", "us"},
	{"trace.overhead_us", "us"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// window is the measured time of a run.
func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

var workloads = map[string]func(config) (*result, error){
	"calibrate":  runCalibrate,
	"serve-hot":  runServeHot,
	"sweep-cold": runSweepCold,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "calibrate, serve-hot or sweep-cold")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	results := fs.String("results", "", "directory for result files (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		return runCompare(fs.Args()[1:], stdout, stderr)
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (calibrate|serve-hot|sweep-cold), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.Workload, res.Seed, res.Seconds, res.Trace = cfg.workload, cfg.seed, cfg.seconds, cfg.trace
	res.Host = fingerprint()
	line, err := resultLine(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printReport(stdout, res)
	if *results != "" {
		if err := writeResult(*results, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing result file: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// resultLine renders the final JSON line: the end-to-end metrics
// without tracing, the per-layer metrics with it.
func resultLine(res *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if res.Trace {
		for _, l := range perLayer {
			v := value{Unit: l.unit}
			if m, ok := find(res.Layers, l.name); ok {
				v.Value = m.Value
			}
			metrics[l.name] = v
		}
	} else {
		for _, name := range endToEnd {
			m, ok := find(res.Metrics, name)
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			metrics[name] = value{Value: m.Value, Unit: m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v host=%q nproc=%d %s/%s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Host.CPU, res.Host.NProc, res.Host.GOARCH, res.Host.GoVersion)
	fmt.Fprintf(w, "attempted=%d failed=%d error_pct=%.4f correct=%v\n",
		res.Attempted, res.Failed, errorPct(res), res.correct())
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s %s\n", status, c.Name, c.Detail)
	}
	printMetrics(w, "end-to-end", res.Metrics)
	printMetrics(w, "per-layer", res.Layers)
	if len(res.Reconcile) > 0 {
		fmt.Fprintln(w, "reconcile (us per op):")
		for _, r := range res.Reconcile {
			fmt.Fprintf(w, "  %-34s %14.1f  %s\n", r.Layer, r.Us, r.Note)
		}
	}
}

func printMetrics(w io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
}

func errorPct(res *result) float64 {
	if res.Attempted == 0 {
		return 100
	}
	return 100 * float64(res.Failed) / float64(res.Attempted)
}

func resultName(res *result) string {
	return res.Workload + "-seed" + strconv.FormatUint(res.Seed, 10) + "-trace" + strconv.FormatBool(res.Trace)
}

func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, resultName(res)+".json"), res); err != nil {
		return err
	}
	if res.Trace {
		return writeJSON(filepath.Join(dir, resultName(res)+"-spans.json"), res.spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- compare -----------------------------------------------------------------

// runCompare prints every metric of two result files side by side. When
// the files come from different hosts, every line is flagged and the
// exit code is 3: a cross-host ratio is never passed off as a same-host
// one.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench: compare needs two result files")
		return 2
	}
	var old, cur result
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, []*result{&old, &cur}[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: compare: %s: %v\n", p, err)
			return 2
		}
	}
	if old.Workload != cur.Workload {
		fmt.Fprintf(stderr, "perfbench: compare refused, workloads differ: %s vs %s\n", old.Workload, cur.Workload)
		return 3
	}
	note, code := "", 0
	if diff := old.Host.diff(cur.Host); diff != "" {
		fmt.Fprintf(stderr, "perfbench: compare: results come from different hosts: %s\n", diff)
		note, code = "  [different host: "+diff+"]", 3
	}
	rows := append(append([]metric(nil), cur.Metrics...), cur.Layers...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	for _, m := range rows {
		o, ok := find(append(append([]metric(nil), old.Metrics...), old.Layers...), m.Name)
		if !ok {
			fmt.Fprintf(stdout, "%-34s %16s -> %16.4f %s (new)%s\n", m.Name, "-", m.Value, m.Unit, note)
			continue
		}
		ratio := "n/a"
		if o.Value != 0 {
			ratio = strconv.FormatFloat(m.Value/o.Value, 'f', 4, 64)
		}
		fmt.Fprintf(stdout, "%-34s %16.4f -> %16.4f %-6s x%s%s\n", m.Name, o.Value, m.Value, m.Unit, ratio, note)
	}
	return code
}
