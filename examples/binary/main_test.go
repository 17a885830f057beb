package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinary builds the example, runs it with default flags and checks the
// lines that carry its point: twelve pipelined reads are answered on one
// connection, and the control verbs report what they did.
func TestBinary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "binary")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"block  77 -> id=12 device=1",
		"MAP 42    -> design block 6 on devices [1 5 6]",
		"STATS     -> 12 requests, 7 delayed, 0 rejected",
		"HEALTH    -> 9/9 devices alive, S'=5",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
