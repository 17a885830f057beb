package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBench(t *testing.T) {
	path := writeTemp(t, "bench.txt", `
goos: linux
BenchmarkOnlineSubmit-8   	30000000	        38.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkOnlineSubmit-8   	30000000	        37.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkServerThroughput/shards=4-16         	   12000	     95012 ns/op	          631182 ops/s
BenchmarkNoNsOp-8     10    things
PASS
`)
	got, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(got), got)
	}
	if r := got["BenchmarkOnlineSubmit"]; r.nsOp != 37.9 {
		t.Errorf("duplicate runs should keep the minimum; got %.1f", r.nsOp)
	}
	if r := got["BenchmarkServerThroughput/shards=4"]; r.nsOp != 95012 {
		t.Errorf("sub-benchmark ns/op = %.1f, want 95012", r.nsOp)
	}
	if r := got["BenchmarkServerThroughput/shards=4"]; r.opsS != 631182 {
		t.Errorf("sub-benchmark ops/s = %.1f, want 631182", r.opsS)
	}
	if r := got["BenchmarkOnlineSubmit"]; r.opsS != 0 {
		t.Errorf("ops/s = %.1f for a benchmark without the metric, want 0", r.opsS)
	}
}

func TestParseBenchOpsDuplicates(t *testing.T) {
	path := writeTemp(t, "bench.txt", `
BenchmarkT/shards=1-8   30000   302.0 ns/op   3311543 ops/s
BenchmarkT/shards=1-8   30000   310.0 ns/op   3350000 ops/s
`)
	got, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	r := got["BenchmarkT/shards=1"]
	if r.nsOp != 302.0 {
		t.Errorf("duplicate ns/op = %.1f, want minimum 302.0", r.nsOp)
	}
	if r.opsS != 3350000 {
		t.Errorf("duplicate ops/s = %.1f, want maximum 3350000", r.opsS)
	}
}

func TestParseRatios(t *testing.T) {
	path := writeTemp(t, "baseline.txt", `
# Committed baseline.
# ratio: BenchmarkA/x-8 / BenchmarkB-8 >= 1.5 ops/s
# ratio: BenchmarkC / BenchmarkD >= 3.0 ns/op
BenchmarkA/x-8  10  100 ns/op
`)
	rs, err := parseRatios(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("parsed %d ratios, want 2", len(rs))
	}
	want := ratio{a: "BenchmarkA/x", b: "BenchmarkB", min: 1.5, metric: "ops/s"}
	if rs[0] != want {
		t.Errorf("ratio[0] = %+v, want %+v (GOMAXPROCS suffix stripped)", rs[0], want)
	}
	for _, bad := range []string{
		"# ratio: A / B > 1.0 ops/s",
		"# ratio: A B >= 1.0 ops/s",
		"# ratio: A / B >= 0 ops/s",
		"# ratio: A / B >= 1.0 MB/s",
		"# ratio: A / B >= ops/s",
	} {
		p := writeTemp(t, "bad.txt", bad+"\n")
		if _, err := parseRatios(p); err == nil {
			t.Errorf("parseRatios accepted %q, want error", bad)
		}
	}
}

func TestGateRatios(t *testing.T) {
	current := map[string]result{
		"Bin1":  {name: "Bin1", nsOp: 302, opsS: 3300000},
		"Bin4":  {name: "Bin4", nsOp: 280, opsS: 3500000},
		"Text1": {name: "Text1", nsOp: 1176, opsS: 850000},
	}
	cases := []struct {
		r    ratio
		fail bool
	}{
		{ratio{a: "Bin4", b: "Bin1", min: 1.0, metric: "ops/s"}, false},
		{ratio{a: "Bin1", b: "Text1", min: 3.0, metric: "ops/s"}, false},
		{ratio{a: "Bin1", b: "Bin4", min: 1.2, metric: "ops/s"}, true},   // 0.94 < 1.2·0.9
		{ratio{a: "Bin1", b: "Bin4", min: 1.0, metric: "ops/s"}, false},  // 0.94 ≥ 1.0·0.9: inside tolerance
		{ratio{a: "Bin1", b: "Gone", min: 1.0, metric: "ops/s"}, true},   // missing benchmark must fail
		{ratio{a: "Bin1", b: "Text1", min: 1.0, metric: "MB/s"}, true},   // unknown metric must fail
		{ratio{a: "Text1", b: "Bin4", min: 1.0, metric: "ops/s"}, true},  // 0.24 < 1
		{ratio{a: "Text1", b: "Bin1", min: 3.0, metric: "ns/op"}, false}, // 1176/302 ≥ 3
	}
	for _, c := range cases {
		var w strings.Builder
		failed := gateRatios(&w, []ratio{c.r}, current, 0.10)
		if (len(failed) > 0) != c.fail {
			t.Errorf("ratio %+v: failed=%v, want fail=%v\n%s", c.r, failed, c.fail, w.String())
		}
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":            "BenchmarkX",
		"BenchmarkX-16":           "BenchmarkX",
		"BenchmarkX":              "BenchmarkX",
		"BenchmarkX/k=4-8":        "BenchmarkX/k=4",
		"BenchmarkX/shards=1-256": "BenchmarkX/shards=1",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGate(t *testing.T) {
	baseline := map[string]result{
		"A": {name: "A", nsOp: 100},
		"B": {name: "B", nsOp: 100},
		"C": {name: "C", nsOp: 100},
	}
	current := map[string]result{
		"A": {name: "A", nsOp: 109}, // +9%: inside 10% tolerance
		"B": {name: "B", nsOp: 120}, // +20%: regression
		"C": {name: "C", nsOp: 90},  // faster
		"D": {name: "D", nsOp: 50},  // new, ignored
	}
	var report strings.Builder
	failed := gate(&report, baseline, current, 0.10)
	if len(failed) != 1 || failed[0] != "B" {
		t.Fatalf("failed = %v, want [B]", failed)
	}
	out := report.String()
	for _, want := range []string{"ok   A", "FAIL B", "ok   C", "NEW  D"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Improvements never fail.
	current["B"] = result{name: "B", nsOp: 10}
	var r2 strings.Builder
	if failed := gate(&r2, baseline, current, 0.10); len(failed) != 0 {
		t.Errorf("improvement flagged as regression: %v", failed)
	}
}

// TestGateMissingBaselineFails pins that a baseline benchmark absent from
// the current run fails the gate, so renaming or deleting a gated
// benchmark cannot drop its gate silently.
func TestGateMissingBaselineFails(t *testing.T) {
	baseline := map[string]result{
		"A": {name: "A", nsOp: 100},
		"C": {name: "C", nsOp: 100},
	}
	current := map[string]result{
		"A":        {name: "A", nsOp: 100},
		"C/rename": {name: "C/rename", nsOp: 100},
	}
	var report strings.Builder
	failed := gate(&report, baseline, current, 0.10)
	if len(failed) != 1 || failed[0] != "C" {
		t.Fatalf("failed = %v, want [C]", failed)
	}
	if out := report.String(); !strings.Contains(out, "FAIL C") || !strings.Contains(out, "not in current run") {
		t.Errorf("report does not flag the missing benchmark:\n%s", out)
	}
}
