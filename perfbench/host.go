package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// hostInfo fingerprints the machine a result was measured on. Timings
// from two different fingerprints are not comparable as they stand.
type hostInfo struct {
	CPU       string `json:"cpu"`
	NProc     int    `json:"nproc"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
}

func fingerprint() hostInfo {
	return hostInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), GOARCH: runtime.GOARCH, GoVersion: runtime.Version()}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// diff names the fields in which two fingerprints differ ("" if none).
func (h hostInfo) diff(o hostInfo) string {
	var d []string
	if h.CPU != o.CPU {
		d = append(d, "cpu "+h.CPU+" vs "+o.CPU)
	}
	if h.NProc != o.NProc {
		d = append(d, "nproc differs")
	}
	if h.GOARCH != o.GOARCH {
		d = append(d, "goarch "+h.GOARCH+" vs "+o.GOARCH)
	}
	if h.GoVersion != o.GoVersion {
		d = append(d, "go "+h.GoVersion+" vs "+o.GoVersion)
	}
	return strings.Join(d, "; ")
}
