package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// fsyncProbes is how many write+fsync round trips the host probe times.
const fsyncProbes = 200

// hostInfo records the machine a run's figures belong to. The fsync
// probe's median is a host fact, not a metric: it is the floor under
// every acknowledged write of a SyncAlways durable relation.
type hostInfo struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	FsyncPolicy string  `json:"fsync_policy"`
	FsyncP50US  float64 `json:"fsync_probe_p50_us"`
	FsyncP99US  float64 `json:"fsync_probe_p99_us"`
}

// probeHost describes the machine and times small appends plus fsync in
// dir, the directory the durable workload writes its log into.
func probeHost(dir string) (hostInfo, error) {
	h := hostInfo{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		FsyncPolicy: "flows-replicated: bulk load under SyncOff, timed phase under SyncAlways; other workloads write no log",
	}
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return h, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	rec := make([]byte, 64)
	var lat samples
	for i := 0; i < fsyncProbes; i++ {
		start := time.Now()
		if _, err := f.Write(rec); err != nil {
			return h, err
		}
		if err := f.Sync(); err != nil {
			return h, err
		}
		lat = append(lat, time.Since(start))
	}
	h.FsyncP50US, h.FsyncP99US = lat.quantileUS(0.5), lat.quantileUS(0.99)
	return h, f.Close()
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
