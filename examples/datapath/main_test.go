package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDatapath builds the example, runs it with default flags over a test
// directory and checks the lines that carry its point: payloads read back
// byte-for-byte, survive a device failure and resilver, and survive a cold
// restart.
func TestDatapath(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "datapath")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-dir", t.TempDir()).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"... 24 blocks read back byte-for-byte",
		"device 0 recovered; resilver restored every replica it holds",
		"cold restart: index rebuilt from volumes, all 48 blocks served byte-for-byte",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
