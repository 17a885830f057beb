package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildFimtool compiles the command into a temporary directory.
func buildFimtool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fimtool")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// mined is the timing clause of the "mined ..." line, which differs per run.
var mined = regexp.MustCompile(` in [^ ]+ \([0-9.]+ MB allocated\)`)

// TestUnsortedTraceMinesLikeSorted feeds the same three requests in arrival
// order and with the last one listed first: blocks 1 and 2 share a window,
// so both files must mine the pair (1, 2).
func TestUnsortedTraceMinesLikeSorted(t *testing.T) {
	bin := buildFimtool(t)
	dir := t.TempDir()
	traces := map[string]string{
		"sorted":   "0.010 0 1 4096 R\n0.020 0 2 4096 R\n0.500 0 3 4096 R\n",
		"unsorted": "0.010 0 1 4096 R\n0.500 0 3 4096 R\n0.020 0 2 4096 R\n",
	}
	outs := map[string]string{}
	for name, body := range traces {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-support", "1", path).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out)
		}
		outs[name] = mined.ReplaceAllString(string(out), "")
	}
	if outs["sorted"] != outs["unsorted"] {
		t.Fatalf("unsorted trace mined differently:\nsorted:\n%s\nunsorted:\n%s", outs["sorted"], outs["unsorted"])
	}
	if !strings.Contains(outs["sorted"], "mined 1 frequent pairs") || !strings.Contains(outs["sorted"], "(1, 2) support 1") {
		t.Fatalf("want the pair (1, 2) with support 1, got:\n%s", outs["sorted"])
	}
}

// TestNonPositiveWindowIsUsageError checks that a window the miner cannot
// cut transactions with is refused as a usage error, not a panic.
func TestNonPositiveWindowIsUsageError(t *testing.T) {
	bin := buildFimtool(t)
	path := filepath.Join(t.TempDir(), "trace")
	if err := os.WriteFile(path, []byte("0.010 0 1 4096 R\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"0", "-1", "NaN"} {
		out, err := exec.Command(bin, "-window", w, path).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-window %s: want exit status 2, got %v\n%s", w, err, out)
		}
		if strings.Contains(string(out), "panic:") {
			t.Errorf("-window %s panicked:\n%s", w, out)
		}
	}
}
