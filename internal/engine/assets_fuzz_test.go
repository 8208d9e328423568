package engine

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"dlrmperf/internal/hw"
)

// assetState renders the engine state a LoadAssets call may change:
// the calibrated devices, every device's asset epoch, and each asset
// class's resident count.
func assetState(e *Engine) string {
	e.mu.Lock()
	epochs := fmt.Sprint(e.assetEpochs) // fmt prints maps key-sorted
	e.mu.Unlock()
	var resident []int
	for _, c := range e.AssetStats().Classes {
		resident = append(resident, c.Resident)
	}
	return fmt.Sprint(e.CalibratedDevices(), epochs, resident)
}

// assetPayload is a minimal well-formed asset export for device: an
// empty registry plus the given overheads and shared entries (raw JSON,
// omitted when empty).
func assetPayload(t *testing.T, device, overheads, shared string) []byte {
	t.Helper()
	w := map[string]any{
		"version":  AssetFormatVersion,
		"device":   device,
		"registry": json.RawMessage(`{"device":"` + device + `","models":{}}`),
	}
	if overheads != "" {
		w["overheads"] = json.RawMessage(overheads)
	}
	if shared != "" {
		w["shared"] = json.RawMessage(shared)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadAssetsAllOrNothing: a payload whose registry is valid but
// whose overhead or shared database is malformed is refused without
// installing anything — the device stays uncalibrated, its epoch
// stays put, and no class gains a resident entry.
func TestLoadAssetsAllOrNothing(t *testing.T) {
	const db = `{"t1":{"mean":5,"std":1,"n":3}}`
	e := New(Options{Seed: 1})
	if _, err := e.LoadAssets(assetPayload(t, hw.P100, `{"DLRM_default":`+db+`}`, db)); err != nil {
		t.Fatalf("valid payload: %v", err)
	}
	before := assetState(e)
	for name, data := range map[string][]byte{
		"bad overheads": assetPayload(t, hw.V100, `{"DLRM_default":`+db+`,"DLRM_DDP":"not a database"}`, db),
		"bad shared":    assetPayload(t, hw.V100, `{"DLRM_default":`+db+`}`, `[1,2,3]`),
	} {
		if _, err := e.LoadAssets(data); err == nil {
			t.Fatalf("%s: LoadAssets succeeded, want an error", name)
		}
		if devs := e.CalibratedDevices(); !slices.Equal(devs, []string{hw.P100}) {
			t.Errorf("%s: calibrated devices = %v, want [%s]", name, devs, hw.P100)
		}
		if got := e.AssetsEpoch(hw.V100); got != 0 {
			t.Errorf("%s: V100 asset epoch = %d, want 0", name, got)
		}
		if got := assetState(e); got != before {
			t.Errorf("%s: engine state changed on a refused load:\n got %s\nwant %s", name, got, before)
		}
	}
}

// FuzzLoadAssets: no payload panics LoadAssets, a refused payload
// leaves the engine unchanged, and an accepted one calibrates the
// device it names. The checked-in corpus (testdata/fuzz/FuzzLoadAssets)
// holds a real export, its version-0 twin, a truncated copy, and
// copies with a malformed overhead and shared database.
func FuzzLoadAssets(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New(Options{Seed: 1})
		before := assetState(e)
		device, err := e.LoadAssets(data)
		if err != nil {
			if got := assetState(e); got != before {
				t.Fatalf("refused payload (%v) changed engine state:\n got %s\nwant %s", err, got, before)
			}
			return
		}
		if !slices.Contains(e.CalibratedDevices(), device) {
			t.Fatalf("accepted payload for %q left it uncalibrated", device)
		}
	})
}
