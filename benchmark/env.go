package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is the block every report carries: numbers from different
// machines, commits or toolchains are not comparable, and this says which
// ones a report came from.
func environment(selected []spec) map[string]any {
	fsync := map[string]string{}
	for _, sp := range selected {
		fsync[sp.name] = sp.fsync
	}
	return map[string]any{
		"commit":     commit(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"kernel":     firstLine("/proc/sys/kernel/osrelease"),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"fsync":      fsync,
	}
}

// commit names the source the run measured; a checkout without git
// metadata reads "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
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

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return line
}
