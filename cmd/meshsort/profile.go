package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a CPU profile and/or arranges a heap profile at
// exit, returning the (idempotent) stop function that flushes and closes
// them. Empty paths disable the respective profile. The heap profile is
// written at stop time — after the measured run — which is the
// steady-state picture the zero-allocation claims are about.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "-memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set before sampling
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "-memprofile:", err)
			}
		}
	}
	return stop, nil
}
