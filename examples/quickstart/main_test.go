package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickstart builds the example, runs it with default flags and checks
// the lines that carry its point: the fourth app is rejected at S = 5, five
// concurrent reads finish in one access, and a sixth is delayed one
// interval.
func TestQuickstart(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "quickstart")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"guarantee: any 5 requests retrieved in 1 access, 14 in 2, 27 in 3",
		"app3: admitted with 1 requests/period (total 5/5)",
		"app4: rejected",
		"block 28 -> device 8, response 0.132507 ms, delayed=false",
		"6th concurrent request: delayed=true by 0.133000 ms",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
