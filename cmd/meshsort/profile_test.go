package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfilesWritesFiles: both profiles land on disk, non-empty,
// and the stop function is idempotent (a second call is a no-op).
func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = make([]byte, 1024)
	}
	stop()
	stop() // second call must be a no-op, not a double close
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

// TestStartProfilesDisabled: empty paths produce no files and a working
// no-op stop.
func TestStartProfilesDisabled(t *testing.T) {
	stop, err := startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop()
}

// TestStartProfilesBadPath surfaces an unwritable path as an error
// instead of silently dropping the profile.
func TestStartProfilesBadPath(t *testing.T) {
	if _, err := startProfiles(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof"), ""); err == nil {
		t.Fatal("want error for unwritable -cpuprofile path")
	}
}
