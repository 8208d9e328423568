package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestGeneratorsAreDeterministicInTheSeed(t *testing.T) {
	if a, b := genCalibrate(7), genCalibrate(7); !reflect.DeepEqual(a, b) {
		t.Fatalf("calibrate inputs differ for one seed: %+v vs %+v", a, b)
	}
	if a, b := genCalibrate(7), genCalibrate(8); a.EngineSeed == b.EngineSeed {
		t.Fatalf("calibration seed does not depend on the benchmark seed")
	}

	h1, h2 := genServeHot(7), genServeHot(7)
	if !reflect.DeepEqual(h1.Keys, h2.Keys) || h1.EngineSeed != h2.EngineSeed {
		t.Fatalf("serve-hot key sets differ for one seed")
	}
	draw := func(in hotInputs, client, n int) []int {
		s := in.stream(client)
		out := make([]int, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(h1, 0, 2000), draw(h2, 0, 2000)) {
		t.Fatalf("Zipf streams differ for one seed")
	}
	if reflect.DeepEqual(draw(h1, 0, 2000), draw(h1, 1, 2000)) {
		t.Fatalf("two clients draw the same stream")
	}
	if reflect.DeepEqual(draw(h1, 0, 2000), draw(genServeHot(8), 0, 2000)) {
		t.Fatalf("Zipf stream does not depend on the seed")
	}
	counts := map[int]int{}
	for _, k := range draw(h1, 0, 20000) {
		if k < 0 || k >= len(h1.Keys) {
			t.Fatalf("draw %d outside the %d-key set", k, len(h1.Keys))
		}
		counts[k]++
	}
	if counts[0] < counts[len(h1.Keys)-1]*5 {
		t.Fatalf("stream is not skewed: rank 0 drawn %d times, last rank %d", counts[0], counts[len(h1.Keys)-1])
	}

	s1, s2 := genSweepCold(7), genSweepCold(7)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("sweep grids differ for one seed")
	}
	if got := s1.Grid.Size(); got != 720 {
		t.Fatalf("grid has %d points, want 4 families x 2 devices x 3 widths x 3 comms x 5 batches x 2 modes = 720", got)
	}
	seen := map[int64]bool{}
	for _, b := range s1.Grid.Batches {
		if seen[b] {
			t.Fatalf("duplicate batch %d in %v", b, s1.Grid.Batches)
		}
		seen[b] = true
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.50, false}, {20, 0.50, true},
		{999, 0.99, false}, {1000, 0.99, true},
	}
	for _, c := range cases {
		if _, ok := percentile(seq(c.n), c.q); ok != c.want {
			t.Errorf("percentile(%d samples, %v) reported=%v, want %v", c.n, c.q, ok, c.want)
		}
	}
	if v, _ := percentile(seq(20), 0.5); v != 10 {
		t.Errorf("p50 of 1..20 = %v, want 10", v)
	}
	// Ties at the percentile do not count as beyond it.
	tied := append(seq(5), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	if _, ok := percentile(tied, 0.5); ok {
		t.Errorf("p50 reported with only 4 samples above it")
	}
	if minSamplesFor(0.5) != 20 || minSamplesFor(0.99) != 1000 {
		t.Errorf("minSamplesFor: p50 %d, p99 %d", minSamplesFor(0.5), minSamplesFor(0.99))
	}

	var log opLog
	log.latUs = seq(500)
	log.busy, log.cpu = time.Second, time.Second
	for _, m := range log.timingMetrics() {
		if m.Name == "p99_us" {
			t.Fatalf("p99_us reported from 500 samples")
		}
	}
}

func TestTimingMetricsCountTheSameOp(t *testing.T) {
	var log opLog
	for i := 0; i < 25; i++ {
		if err := log.timeSerial(func() error {
			time.Sleep(2 * time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ms := log.timingMetrics()
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.Name] = m
		if m.Samples != log.ops() {
			t.Errorf("%s counts %d samples, the log holds %d ops", m.Name, m.Samples, log.ops())
		}
	}
	for _, name := range []string{"ops_per_s", "p50_us", "cpu_us_per_op"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("%s missing from %v", name, ms)
		}
	}
	// ops_per_s is the reciprocal of the mean op time of the same ops
	// the percentile is taken over.
	meanUs := mean(log.latUs)
	if got := byName["ops_per_s"].Value * meanUs / 1e6; got < 0.999 || got > 1.001 {
		t.Errorf("ops_per_s x mean op time = %v, want 1", got)
	}
	if p50 := byName["p50_us"].Value; p50 < 2000 || p50 > 2*meanUs {
		t.Errorf("p50_us %v inconsistent with sleeping 2ms ops (mean %v)", p50, meanUs)
	}
	if cpu := byName["cpu_us_per_op"].Value; cpu > meanUs {
		t.Errorf("cpu_us_per_op %v above the op time %v for a sleeping op", cpu, meanUs)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{Op: 1, ID: 3, Parent: 1, Name: "a", Start: 30, End: 60}, // overlaps the first
		{Op: 1, ID: 4, Parent: 2, Name: "b", Start: 20, End: 30},
	}
	rows, ops := selfTimes(spans)
	if ops != 1 {
		t.Fatalf("ops = %d", ops)
	}
	want := map[string]float64{"root": 0.05, "a": 0.06, "b": 0.01} // us; root covered 10..60
	for _, r := range rows {
		if w := want[r.Name]; r.SelfUs < w-1e-9 || r.SelfUs > w+1e-9 {
			t.Errorf("%s self = %v us, want %v", r.Name, r.SelfUs, w)
		}
	}
}

func TestResultLineHoldsExactlyTheDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	res := &result{Attempted: 1}
	for _, name := range endToEnd {
		res.Metrics = append(res.Metrics, metric{Name: name, Value: 1, Unit: "u"})
	}
	res.Metrics = append(res.Metrics, metric{Name: "error_pct", Value: 0, Unit: "%"})
	check := func(trace bool, declared []struct{ Name, Unit string }) {
		res.Trace = trace
		line, err := resultLine(res)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Metrics) != len(declared) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", trace, len(out.Metrics), len(declared))
		}
		for _, d := range declared {
			m, ok := out.Metrics[d.Name]
			if !ok {
				t.Errorf("trace=%v: %s missing", trace, d.Name)
			} else if trace && m.Unit != d.Unit {
				t.Errorf("%s unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
			}
		}
	}
	check(false, bench.EndToEnd)
	check(true, bench.PerLayer)

	res.Trace = false
	res.Metrics = res.Metrics[1:]
	if _, err := resultLine(res); err == nil {
		t.Errorf("a missing end-to-end metric was not an error")
	}
}

func TestCompareFlagsDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	a := &result{Workload: "serve-hot", Host: hostInfo{CPU: "x", NProc: 2, GOARCH: "amd64", GoVersion: "go1"},
		Metrics: []metric{{Name: "p50_us", Value: 10, Unit: "us"}, {Name: "ops_per_s", Value: 5, Unit: "1/s"}}}
	b := *a
	b.Host.NProc = 4
	if err := writeJSON(dir+"/a.json", a); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(dir+"/b.json", &b); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := runCompare([]string{dir + "/a.json", dir + "/b.json"}, &out, &errOut); code == 0 {
		t.Fatalf("compare across hosts exited 0")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("cross-host comparison printed %d lines, want 2: %s", len(lines), out.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "[different host: nproc differs]") {
			t.Fatalf("cross-host line not flagged: %s", l)
		}
	}
	out.Reset()
	if code := runCompare([]string{dir + "/a.json", dir + "/a.json"}, &out, &errOut); code != 0 {
		t.Fatalf("same-host compare exited %d", code)
	}
	if strings.Contains(out.String(), "different host") {
		t.Fatalf("same-host comparison flagged: %s", out.String())
	}
}
