package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"dlrmperf/internal/client"
	"dlrmperf/internal/cluster"
	"dlrmperf/internal/serve"
)

// pickPorts reserves n distinct loopback ports by binding and
// releasing them — the replicated coordinators need each other's URL
// on the command line before either has started listening.
func pickPorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// statsOf fetches one coordinator's whole /stats document, with the
// coordinator-only sections (lease, vault, per-worker rows) that
// client.Stats skips.
func statsOf(t *testing.T, cl *client.Client) cluster.Stats {
	t.Helper()
	resp, err := http.Get(cl.Base() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator /stats: status %d, decode error %v", resp.StatusCode, err)
	}
	return st
}

// workerLedger returns worker id's own calibration ledger
// (workers[].stats.calibrations), failing unless that worker's row
// carries a stats snapshot.
func workerLedger(t *testing.T, st cluster.Stats, id string) map[string]int {
	t.Helper()
	for _, w := range st.Workers {
		if w.ID == id && w.Stats != nil {
			return w.Stats.Calibrations
		}
	}
	t.Fatalf("no stats row for worker %s in %+v", id, st.Workers)
	return nil
}

// deviceOwners maps each calibrated device to the worker whose ledger
// holds it, failing unless every device calibrated on exactly one
// worker, exactly once.
func deviceOwners(t *testing.T, st cluster.Stats) map[string]string {
	t.Helper()
	owner := map[string]string{}
	for _, w := range st.Workers {
		if w.Stats == nil {
			continue
		}
		for dev, runs := range w.Stats.Calibrations {
			if prev, dup := owner[dev]; dup {
				t.Fatalf("device %s calibrated on both %s and %s", dev, prev, w.ID)
			}
			owner[dev] = w.ID
			if runs != 1 {
				t.Fatalf("device %s calibrated %d times on %s, want 1", dev, runs, w.ID)
			}
		}
	}
	return owner
}

// waitCond polls cond with a long cross-process deadline.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestE2EClusterReplicated is the replicated-control-plane end-to-end:
// 2 coordinators in a peer group + 2 workers registered with both.
// It proves the two tentpole properties across real process
// boundaries:
//
//  1. Killing the leader coordinator mid-run loses no cached results —
//     a result fetched through the leader is a LOCAL cache hit on the
//     survivor (peer_results_installed observed before the kill, so
//     the hit is replication, not a fresh route).
//  2. Killing the worker that owns a calibrated device hands its
//     vaulted assets to the new rendezvous home BEFORE traffic lands
//     there — the survivor serves the next request warm and its
//     calibration ledger never grows.
func TestE2EClusterReplicated(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("drains via signals; not exercised on windows")
	}
	bin := filepath.Join(t.TempDir(), "dlrmperf-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binary: %v\n%s", err, out)
	}

	// Symmetric peer wiring needs both URLs before either process
	// exists, so the ports are reserved up front.
	ports := pickPorts(t, 2)
	urlA, urlB := "http://"+ports[0], "http://"+ports[1]
	coordA := startServeProc(t, "coordA", bin,
		"-coordinator", "-listen", ports[0], "-peers", urlB,
		"-liveness", "3s", "-heartbeat", "200ms")
	coordB := startServeProc(t, "coordB", bin,
		"-coordinator", "-listen", ports[1], "-peers", urlA,
		"-liveness", "3s", "-heartbeat", "200ms")
	coords := map[string]*serveProc{urlA: coordA, urlB: coordB}

	// Workers register (and push calibration assets) to BOTH
	// coordinators, so routing never depends on registration gossip.
	register := urlA + "," + urlB
	w1 := startServeProc(t, "worker1", bin,
		"-listen", "127.0.0.1:0", "-fast-calib",
		"-register", register, "-heartbeat", "200ms")
	w2 := startServeProc(t, "worker2", bin,
		"-listen", "127.0.0.1:0", "-fast-calib",
		"-register", register, "-heartbeat", "200ms")
	workers := map[string]*serveProc{w1.base(): w1, w2.base(): w2}

	ctx := context.Background()
	clA, clB := client.New(urlA), client.New(urlB)
	waitForWorkers(t, clA, coordA, 2)
	waitForWorkers(t, clB, coordB, 2)

	// The peer probes elect one leader; both sides must agree.
	var leaderURL string
	waitCond(t, "a consistent leader election", func() bool {
		stA, stB := statsOf(t, clA), statsOf(t, clB)
		if stA.Lease == nil || stB.Lease == nil || stA.Lease.Leader != stB.Lease.Leader {
			return false
		}
		leaderURL = stA.Lease.Leader
		return true
	})
	leader := coords[leaderURL]
	survivorURL := urlA
	if leaderURL == urlA {
		survivorURL = urlB
	}
	clLeader, clSurvivor := client.New(leaderURL), client.New(survivorURL)
	t.Logf("leader %s, survivor %s", leaderURL, survivorURL)

	// Phase 1: fetch through the leader, wait for the gossiped result
	// to land on the survivor (counted, not probed — a probe query
	// would seed the survivor's cache by routing and prove nothing),
	// then SIGKILL the leader.
	fetched := serve.Request{Workload: "DLRM_DDP", Batch: 1024, Device: "V100"}
	row, err := clLeader.Predict(ctx, fetched)
	if err != nil || row.Error != "" {
		t.Fatalf("fetch via leader = %+v / %v\nleader tail:\n%s", row, err, leader.tail())
	}
	waitCond(t, "result gossip to land on the survivor", func() bool {
		return statsOf(t, clSurvivor).Coordinator.PeerResultsInstalled >= 1
	})
	if err := leader.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	leader.waitExit(t, 30*time.Second)

	row, err = clSurvivor.Predict(ctx, fetched)
	if err != nil || row.Error != "" || !row.CacheHit {
		t.Fatalf("re-query on survivor = %+v / %v, want a cache hit", row, err)
	}
	st := statsOf(t, clSurvivor)
	if st.Coordinator.LocalCacheHits == 0 {
		t.Fatalf("survivor answered from a worker, not its replicated cache: %+v", st.Coordinator)
	}
	// With the leader dead past the liveness window, the survivor must
	// take the lease.
	waitCond(t, "survivor to take the lease", func() bool {
		ls := statsOf(t, clSurvivor).Lease
		return ls != nil && ls.IsLeader
	})

	// Phase 2: warm hand-off. The V100 fetch above calibrated the
	// device on its rendezvous home, whose heartbeat pushes the
	// exported assets into both vaults. Find the home from the
	// aggregated ledger, wait for its assets to reach the survivor
	// coordinator's vault, then SIGKILL it.
	var victimID string
	waitCond(t, "V100 assets to reach the survivor's vault", func() bool {
		st := statsOf(t, clSurvivor)
		for _, w := range st.Workers {
			if w.Stats != nil && w.Stats.Calibrations["V100"] > 0 {
				victimID = w.ID
			}
		}
		v, ok := st.Vault["V100"]
		return ok && victimID != "" && v.Worker == victimID
	})
	victim := workers[victimID]
	if victim == nil {
		t.Fatalf("V100 owner %q is not one of the started workers", victimID)
	}
	wSurvivor := w1
	if victim == w1 {
		wSurvivor = w2
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.waitExit(t, 30*time.Second)

	// A fresh V100 fingerprint routes to the surviving worker; the
	// coordinator must install the dead home's assets there first.
	row, err = clSurvivor.Predict(ctx, serve.Request{Workload: "DLRM_DDP", Batch: 4096, Device: "V100"})
	if err != nil || row.Error != "" || row.E2EUs <= 0 {
		t.Fatalf("failover predict = %+v / %v\ncoordinator tail:\n%s", row, err, coords[survivorURL].tail())
	}
	st = statsOf(t, clSurvivor)
	if st.Coordinator.Migrations == 0 {
		t.Fatalf("no warm hand-off counted after the owner died: %+v\ntail:\n%s",
			st.Coordinator, coords[survivorURL].tail())
	}
	if v := st.Vault["V100"]; v.InstalledOn != wSurvivor.base() {
		t.Fatalf("vault = %+v, want V100 installed on %s", v, wSurvivor.base())
	}
	// The warm hand-off's whole point: the new home's calibration
	// ledger did NOT grow — it serves V100 from the installed assets.
	if runs := workerLedger(t, st, wSurvivor.base())["V100"]; runs != 0 {
		t.Fatalf("surviving worker calibrated V100 %d times after a warm hand-off, want 0", runs)
	}
	wst, err := client.New(wSurvivor.base()).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wst.AssetInstalls == 0 {
		t.Fatal("surviving worker reports no asset installs after the hand-off")
	}
	// Accounting stays exact across both kills: the attempt burned on
	// the dead worker is a counted rejection, not a leak.
	if st.Rejected.WorkerFailed == 0 {
		t.Fatalf("worker_failed = 0 after killing the V100 owner: %+v", st.Rejected)
	}
	if got := st.Accounted(); got != st.Requests {
		t.Fatalf("cluster invariant broken after both kills: accounted %d, requests %d\n%s",
			got, st.Requests, statsDump(st))
	}

	// Clean shutdown: SIGTERM the surviving coordinator; the drain
	// propagates to the surviving registered worker. Both exit 0.
	if err := coords[survivorURL].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := coords[survivorURL].waitExit(t, 2*time.Minute); err != nil {
		t.Fatalf("survivor coordinator drain exited non-zero: %v; tail:\n%s", err, coords[survivorURL].tail())
	}
	if err := wSurvivor.waitExit(t, 2*time.Minute); err != nil {
		t.Fatalf("surviving worker did not drain on propagation: %v; tail:\n%s", err, wSurvivor.tail())
	}
	if !strings.Contains(wSurvivor.tail(), "draining") {
		t.Errorf("surviving worker never logged its drain; tail:\n%s", wSurvivor.tail())
	}
}

func statsDump(st cluster.Stats) string {
	return fmt.Sprintf("hits %d + misses %d + rejected %+v, requests %d",
		st.Cache.Hits, st.Cache.Misses, st.Rejected, st.Requests)
}
