package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// wallClock matches the fields that report measured time, rate or memory
// rather than a result of the experiment.
var wallClock = regexp.MustCompile(`\b(time|wall|mem)=[^ \n]+`)

// TestGoldenSeed42 pins the whole `qosbench -run all -scale 0.1 -seed 42`
// transcript byte-for-byte, every paper figure and ablation included, with
// the wall-clock fields masked. Every number left is a function of the
// seed alone, so the transcript must not move with the core count (CI runs
// this test at GOMAXPROCS 1, 2 and 4). Regenerate deliberately with
// -update after an intentional behavior change.
func TestGoldenSeed42(t *testing.T) {
	c := defaults
	c.seed, c.scale = 42, 0.1
	var got bytes.Buffer
	for _, e := range experimentTable {
		if err := writeSection(&got, e, c); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
	masked := wallClock.ReplaceAll(got.Bytes(), []byte("$1=*"))

	path := filepath.Join("testdata", "golden_seed42.txt")
	if *updateGolden {
		if err := os.WriteFile(path, masked, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(masked))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(masked, want) {
		g, w := bytes.Split(masked, []byte("\n")), bytes.Split(want, []byte("\n"))
		line := 0
		for line < len(g) && line < len(w) && bytes.Equal(g[line], w[line]) {
			line++
		}
		t.Fatalf("qosbench output differs from %s at line %d (got %d bytes, want %d); regenerate with -update if the change is intentional",
			path, line+1, len(masked), len(want))
	}
}
