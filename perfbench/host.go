package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// stamp identifies a run's host, program and inputs, so two results are
// only compared when they are comparable.
type stamp struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	HoldoutSeed int64  `json:"holdout_seed"`
	Seconds     int    `json:"seconds"`
	Traced      bool   `json:"traced"`
	// InputSHA256 hashes the generated inputs: equal seeds give equal
	// hashes on every host.
	InputSHA256 string `json:"input_sha256"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	GitRev      string `json:"git_rev"`
	GitDirty    bool   `json:"git_dirty"`
	// SourceSHA256 hashes the module's Go sources and go.mod files; it
	// identifies the program where no git metadata exists.
	SourceSHA256 string `json:"source_sha256"`
}

func hostStamp(workload string, seed int64, seconds int, traced bool, inputs string) stamp {
	rev, dirty := gitRev()
	return stamp{
		Workload:     workload,
		Seed:         seed,
		HoldoutSeed:  holdoutSeed,
		Seconds:      seconds,
		Traced:       traced,
		InputSHA256:  inputs,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GitRev:       rev,
		GitDirty:     dirty,
		SourceSHA256: sourceDigest("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev returns HEAD and whether tracked files differ from it; "unknown"
// outside a git checkout.
func gitRev() (string, bool) {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(head)), err == nil && len(bytes.TrimSpace(status)) > 0
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories such as .git and the build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set size in MB (VmHWM), or
// the runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb * 1024 / 1e6
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

// runtimeCounters are the process-wide runtime totals whose deltas over a
// measured window give runtime.alloc_mb and runtime.gc_cpu_frac.
type runtimeCounters struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

func (o *outcome) runtimeDelta(a, b runtimeCounters) {
	o.values["runtime.alloc_mb"] = (b.allocBytes - a.allocBytes) / 1e6
	o.values["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}
