package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSharded builds the example, runs it with default flags and checks the
// lines that carry its point: admission scales linearly with the shard
// count, and failing a device degrades only its own shard to S'.
func TestSharded(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sharded")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"scaling vs K=1: 1.0x 2.0x 4.0x 8.0x",
		"block   1001 -> shard 1, global device 16 (local 7)",
		"aggregate: S=20 effective=18 alive=35/36",
		"shard 0: S=5 effective=5 alive=9",
		"shard 1: S=5 effective=3 alive=8  <- degraded to S'",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
