// Command benchgate compares a `go test -bench` run against a committed
// baseline and fails when a benchmark regressed past a tolerance — the
// enforcement half of the CI benchmark gate (benchstat renders the same
// comparison for humans; benchgate needs only the standard library, so
// the gate is reproducible locally with no extra tools).
//
// Usage — the current run must cover every benchmark in the baseline, so
// it runs the same set as the CI "Benchmark gate" step:
//
//	go test ./internal/retrieval -run '^$' -bench 'BenchmarkOnlineSubmit$|BenchmarkOnlineSubmitDegraded' -benchmem | tee bench-current.txt
//	go test ./internal/qosnet -run '^$' -bench 'BenchmarkServerThroughput|BenchmarkBinaryThroughput' -benchtime 2000000x -count 3 | tee -a bench-current.txt
//	go test ./internal/core -run '^$' -bench 'BenchmarkConcurrentSubmit$|BenchmarkConcurrentStatistical$|BenchmarkTenantSubmit' -benchmem -benchtime 200000x -count 3 | tee -a bench-current.txt
//	go test ./internal/pack -run '^$' -bench 'BenchmarkPackAppend$|BenchmarkPackGet$|BenchmarkNeedleDecode' -benchmem -count 3 | tee -a bench-current.txt
//	benchgate -baseline .github/bench-baseline.txt -current bench-current.txt -tolerance 0.10
//
// Benchmarks are matched by name with the trailing -GOMAXPROCS stripped,
// so baselines survive runner core-count changes. A baseline benchmark
// missing from the current run fails the gate, as a regression in ns/op
// beyond the tolerance does: a renamed or deleted benchmark must not drop
// its gate silently. Benchmarks new in the current run are reported only.
// Exit status: 0 pass, 1 regression or missing benchmark, 2 usage/parse
// error.
//
// Besides per-benchmark tolerances, the baseline file may declare ratio
// invariants — shape properties of the current run that must hold no
// matter how fast the runner is, e.g. "sharding must not invert" or "the
// binary protocol must stay ≥3× the text protocol":
//
//	# ratio: BenchmarkBinaryThroughput/shards=4 / BenchmarkBinaryThroughput/shards=1 >= 1.0 ops/s
//
// The directive names two benchmarks (GOMAXPROCS-stripped), a minimum
// quotient, and the metric to compare (ops/s or ns/op). Ratios are
// evaluated on the current run only; a directive whose benchmarks or
// metric are missing from the run fails the gate rather than silently
// passing. The quotient of two noisy measurements is noisy in both
// numerator and denominator, so the gate's tolerance shields ratios the
// same way it shields per-benchmark comparisons: a directive passes when
// the measured quotient is at least min·(1−tolerance).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line. opsS is the custom ops/s metric
// reported by the throughput benchmarks (0 when absent).
type result struct {
	name string
	nsOp float64
	opsS float64
}

// ratio is one "# ratio:" invariant parsed from the baseline file: the
// current run must satisfy metric(a)/metric(b) >= min.
type ratio struct {
	a, b   string
	min    float64
	metric string // "ops/s" or "ns/op"
}

// metricOf returns r's value for the given metric and whether the run
// reported it.
func (r result) metricOf(metric string) (float64, bool) {
	switch metric {
	case "ns/op":
		return r.nsOp, r.nsOp > 0
	case "ops/s":
		return r.opsS, r.opsS > 0
	}
	return 0, false
}

// parseBench extracts benchmark results from `go test -bench` output.
// Lines look like:
//
//	BenchmarkOnlineSubmit-8   30000000   38.2 ns/op   0 B/op   0 allocs/op
//	BenchmarkServerThroughput/shards=4-8   12000   95012 ns/op
//
// Duplicate names (e.g. -count=N runs) keep the minimum ns/op — the
// least-noisy estimate of the code's true cost.
func parseBench(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		ns, ops := -1.0, -1.0
		for i := 2; i+1 < len(fields); i++ {
			switch fields[i+1] {
			case "ns/op", "ops/s":
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad %s in %q", path, fields[i+1], sc.Text())
				}
				if fields[i+1] == "ns/op" {
					ns = v
				} else {
					ops = v
				}
			}
		}
		if ns < 0 {
			continue
		}
		name := stripProcs(fields[0])
		prev, seen := out[name]
		if !seen || ns < prev.nsOp {
			prev.name, prev.nsOp = name, ns
		}
		if ops > prev.opsS {
			prev.opsS = ops
		}
		out[name] = prev
	}
	return out, sc.Err()
}

// parseRatios extracts "# ratio:" directives from the baseline file.
// Grammar (whitespace-separated):
//
//	# ratio: <benchA> / <benchB> >= <min> <metric>
func parseRatios(path string) ([]ratio, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []ratio
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "# ratio:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "# ratio:"))
		bad := func() ([]ratio, error) {
			return nil, fmt.Errorf("%s: bad ratio directive %q (want \"<benchA> / <benchB> >= <min> <metric>\")", path, line)
		}
		if len(fields) != 6 || fields[1] != "/" || fields[3] != ">=" {
			return bad()
		}
		min, err := strconv.ParseFloat(fields[4], 64)
		if err != nil || min <= 0 {
			return bad()
		}
		metric := fields[5]
		if metric != "ops/s" && metric != "ns/op" {
			return bad()
		}
		out = append(out, ratio{a: stripProcs(fields[0]), b: stripProcs(fields[2]), min: min, metric: metric})
	}
	return out, sc.Err()
}

// gateRatios evaluates the ratio invariants against the current run and
// writes a report line each, returning descriptions of the failures. A
// missing benchmark or metric fails the directive: an invariant the run
// cannot check must not pass silently. The tolerance discounts the
// minimum (pass when quotient ≥ min·(1−tolerance)) — both sides of the
// quotient carry run-to-run noise, so a hard threshold would flap on
// invariants that hold at parity.
func gateRatios(w *strings.Builder, ratios []ratio, current map[string]result, tolerance float64) []string {
	var failed []string
	for _, r := range ratios {
		desc := fmt.Sprintf("%s / %s >= %g %s", r.a, r.b, r.min, r.metric)
		va, aok := current[r.a].metricOf(r.metric)
		vb, bok := current[r.b].metricOf(r.metric)
		if !aok || !bok {
			missing := r.a
			if aok {
				missing = r.b
			}
			fmt.Fprintf(w, "FAIL ratio %s: no %s for %s in current run\n", desc, r.metric, missing)
			failed = append(failed, desc)
			continue
		}
		got := va / vb
		verdict := "ok  "
		if got < r.min*(1-tolerance) {
			verdict = "FAIL"
			failed = append(failed, desc)
		}
		fmt.Fprintf(w, "%s ratio %s: %.1f / %.1f = %.2f (tolerance -%.0f%%)\n",
			verdict, desc, va, vb, got, 100*tolerance)
	}
	return failed
}

// stripProcs removes the trailing -GOMAXPROCS from a benchmark name
// (the suffix after the last dash when it is all digits).
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name
	}
	for _, r := range suffix {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// gate compares current against baseline and writes a report line per
// benchmark. It returns the names that regressed past the tolerance or are
// missing from the current run.
func gate(w *strings.Builder, baseline, current map[string]result, tolerance float64) []string {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	var failed []string
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			fmt.Fprintf(w, "FAIL %-50s baseline %.1f ns/op, not in current run\n", name, base.nsOp)
			failed = append(failed, name)
			continue
		}
		delta := (cur.nsOp - base.nsOp) / base.nsOp
		verdict := "ok  "
		if delta > tolerance {
			verdict = "FAIL"
			failed = append(failed, name)
		}
		fmt.Fprintf(w, "%s %-50s %.1f -> %.1f ns/op (%+.1f%%, tolerance %+.0f%%)\n",
			verdict, name, base.nsOp, cur.nsOp, 100*delta, 100*tolerance)
	}
	extra := make([]string, 0)
	for name := range current {
		if _, ok := baseline[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "NEW  %-50s %.1f ns/op, not in baseline\n", name, current[name].nsOp)
	}
	return failed
}

func main() {
	var (
		baselinePath = flag.String("baseline", ".github/bench-baseline.txt", "committed baseline `go test -bench` output")
		currentPath  = flag.String("current", "", "current `go test -bench` output to gate")
		tolerance    = flag.Float64("tolerance", 0.10, "allowed ns/op regression fraction")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	baseline, err := parseBench(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	current, err := parseBench(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark results in %s\n", *baselinePath)
		os.Exit(2)
	}
	ratios, err := parseRatios(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var report strings.Builder
	failed := gate(&report, baseline, current, *tolerance)
	ratioFailed := gateRatios(&report, ratios, current, *tolerance)
	fmt.Print(report.String())
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) regressed past %.0f%% or missing: %s\n",
			len(failed), 100**tolerance, strings.Join(failed, ", "))
	}
	if len(ratioFailed) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d ratio invariant(s) violated: %s\n",
			len(ratioFailed), strings.Join(ratioFailed, "; "))
	}
	if len(failed)+len(ratioFailed) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within tolerance, %d ratio invariant(s) hold\n",
		len(baseline), len(ratios))
}
