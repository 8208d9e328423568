package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"dlrmperf/internal/client"
	"dlrmperf/internal/explore"
)

// TestE2EExploreCluster is the cross-process design-space-exploration
// end-to-end: 1 coordinator + 2 self-registering fast-calib workers,
// the same grid swept through the coordinator's /v1/explore twice via
// the typed client. The cold pass fans the unique configurations
// across the cluster with device-affine routing (each device
// calibrated on exactly one worker); the warm pass is served from
// caches at a hit rate ≥ 0.9; the aggregated /stats invariant holds
// throughout.
func TestE2EExploreCluster(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("process harness assumes unix signals")
	}
	bin := filepath.Join(t.TempDir(), "dlrmperf-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binary: %v\n%s", err, out)
	}

	coord := startServeProc(t, "coordinator", bin,
		"-coordinator", "-listen", "127.0.0.1:0", "-liveness", "3s")
	startServeProc(t, "worker1", bin,
		"-listen", "127.0.0.1:0", "-fast-calib",
		"-register", coord.base(), "-heartbeat", "200ms")
	startServeProc(t, "worker2", bin,
		"-listen", "127.0.0.1:0", "-fast-calib",
		"-register", coord.base(), "-heartbeat", "200ms")

	ctx := context.Background()
	cl := client.New(coord.base())
	waitForWorkers(t, cl, coord, 2)

	grid := explore.Grid{
		Scenarios: []string{"dlrm-default", "dlrm-ddp"},
		Devices:   []string{"V100", "P100"},
		GPUs:      []int{1, 2},
		Batches:   []int64{512},
	}
	sweep := func(pass string) *explore.Report {
		t.Helper()
		rep, err := cl.Explore(ctx, grid)
		if err != nil {
			t.Fatalf("%s sweep: %v\ncoordinator tail:\n%s", pass, err, coord.tail())
		}
		if rep.GridPoints != 8 || rep.Unique != 8 || rep.Failed != 0 {
			t.Fatalf("%s sweep coverage = %d points / %d unique / %d failed, want 8/8/0: %+v",
				pass, rep.GridPoints, rep.Unique, rep.Failed, rep.FailedSamples)
		}
		return rep
	}

	cold := sweep("cold")
	if len(cold.Frontier) == 0 || len(cold.Best) == 0 {
		t.Fatalf("cold sweep missing frontier or best table")
	}

	// Device-affine fan-out: each device's configurations landed on —
	// and calibrated — exactly one worker.
	st := statsOf(t, cl)
	owner := deviceOwners(t, st)
	for _, dev := range []string{"V100", "P100"} {
		if owner[dev] == "" {
			t.Fatalf("device %s calibrated nowhere", dev)
		}
	}
	if got := st.Accounted(); got != st.Requests {
		t.Fatalf("cluster invariant broken after cold sweep: accounted %d, requests %d", got, st.Requests)
	}

	warm := sweep("warm")
	if warm.CacheHitRate < 0.9 {
		t.Fatalf("warm sweep hit rate = %v, want >= 0.9", warm.CacheHitRate)
	}
	wst, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := wst.Accounted(); got != wst.Requests {
		t.Fatalf("cluster invariant broken after warm sweep: accounted %d, requests %d", got, wst.Requests)
	}
	t.Logf("explore e2e: cold %.0f configs/sec, warm %.0f configs/sec at hit rate %.2f",
		cold.ConfigsPerSec, warm.ConfigsPerSec, warm.CacheHitRate)
}
