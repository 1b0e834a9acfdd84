package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// envInfo records where a result was measured: numbers from different
// hosts or toolchains are not comparable, and parallel rows mean nothing
// without the CPU count beside them.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() envInfo {
	e := envInfo{
		Commit:     "unknown", // a checkout without git metadata carries none
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	// run.sh passes the commit in: the binary is built without VCS
	// stamping, which fails outright in checkouts git refuses to read.
	if c := os.Getenv("SCT_BENCH_COMMIT"); c != "" {
		e.Commit = c
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}
