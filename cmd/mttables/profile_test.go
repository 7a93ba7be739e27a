package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlags smoke-tests the -cpuprofile/-memprofile plumbing: a
// profiled table run must produce non-empty pprof files and unchanged
// table output.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")

	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatalf("startProfiles: %v", err)
	}
	var out, errOut bytes.Buffer
	runErr := run(context.Background(), &out, &errOut, "3", 1, 0)
	if err := stop(); err != nil {
		t.Fatalf("stop profiles: %v", err)
	}
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if out.Len() == 0 {
		t.Error("profiled run produced no table output")
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile file: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}
