package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

// schedule renders what a seed expands to — every frame the daemons would
// receive in the paced phase, with its due time — as bytes.
func schedule(t *testing.T, w workload, seed int64) []byte {
	t.Helper()
	ops, err := genOps(w, seed, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dues := genDues(seed, w.rate, 200*time.Millisecond)
	if len(dues) == 0 {
		t.Fatalf("%s: no arrivals in 200 ms at %g/s", w.name, w.rate)
	}
	payload := make([]byte, payloadSize)
	var buf []byte
	for i, due := range dues {
		o := ops[i%len(ops)]
		var p []byte
		if w.pack && o.write {
			fillPayload(payload, o.block, uint64(i))
			p = payload
		}
		buf = appendRequest(buf, w, o, uint64(due), p)
		buf = append(buf, byte(connOf(w, o, i, 2)))
	}
	return buf
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := schedule(t, w, 7), schedule(t, w, 7), schedule(t, w, 8)
		if string(a) != string(b) {
			t.Errorf("%s: two expansions of seed 7 differ", w.name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 expand to the same schedule", w.name)
		}
	}
}

func TestStreamMix(t *testing.T) {
	for _, w := range workloads {
		ops, err := genOps(w, 1, 20000)
		if err != nil {
			t.Fatal(err)
		}
		writes := 0
		for i, o := range ops {
			if o.write {
				writes++
			}
			if want := int32(0); len(w.tenants) > 0 {
				if want = int32(i%len(w.tenants)) + 1; o.tenant != want {
					t.Fatalf("%s: op %d tagged %d, want %d", w.name, i, o.tenant, want)
				}
			} else if o.tenant != want {
				t.Fatalf("%s: untagged workload tagged op %d", w.name, i)
			}
			if w.pack && (o.block < 0 || o.block >= packBlocks) {
				t.Fatalf("%s: block %d outside the working set", w.name, o.block)
			}
		}
		if got, want := float64(writes)/float64(len(ops)), 1-w.readFrac; math.Abs(got-want) > 0.02 {
			t.Errorf("%s: write share %.3f, want %.3f", w.name, got, want)
		}
	}
}

func TestQuantileAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := quantile(xs, 1); got != 1000 {
		t.Errorf("max = %v, want 1000", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// 1000 samples: p99 has 10 beyond it, p99.9 has one.
	if v, ok := tail(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 = %v supported=%v, want 990 true", v, ok)
	}
	if v, ok := tail(xs, 0.999); ok || v != 990 {
		t.Errorf("p99.9 of 1000 = %v supported=%v, want the rank with 10 beyond (990) false", v, ok)
	}
	if v, ok := tail(xs[:5], 0.9); ok || v != 1 {
		t.Errorf("p90 of 5 = %v supported=%v, want 1 false", v, ok)
	}
}

func TestOnTimeCountsEveryAttempt(t *testing.T) {
	ms := int64(time.Millisecond)
	ss := []sample{
		{due: 0, done: ms / 2, ok: true},                  // on time
		{due: 0, done: 2 * ms, ok: true},                  // late
		{due: 0, done: ms / 2, ok: false},                 // refused or wrong payload
		{due: 0, done: 0, ok: false},                      // lost
		{due: 0, done: ms / 4, ok: true, write: true},     // a write, not counted with reads
		{due: ms, done: ms + ms, ok: true},                // exactly at the limit
		{due: 5 * ms, done: 5*ms + ms + 1, ok: true},      // one ns over
		{due: 0, send: ms / 2, done: ms + ms/4, ok: true}, // timed from due, not from send
	}
	frac, n := onTimeFrac(ss, false, ms)
	if n != 7 || math.Abs(frac-2.0/7) > 1e-12 {
		t.Errorf("read on-time = %v of %d, want 2/7 of 7", frac, n)
	}
	frac, n = onTimeFrac(ss, true, ms)
	if n != 1 || frac != 1 {
		t.Errorf("write on-time = %v of %d, want 1 of 1", frac, n)
	}
	if lat := latenciesUS(ss, false, true); len(lat) != 6 {
		t.Errorf("%d read latencies, want 6 (the lost one has none)", len(lat))
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a: 30..50 is new
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent: 90..100
		{Name: "grandchild", ID: 5, Parent: 2, Start: 12, End: 17},
		{Name: "elsewhere", ID: 6, Parent: 3, Start: 200, End: 260}, // outside its parent: covers none of it
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 20 - 20 - 10, 2: 20 - 5, 3: 30, 4: 30, 5: 5, 6: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	selfNS, calls := layerTotals([]span{
		{Name: "x", ID: 1, Start: 0, End: 10, Count: 4},
		{Name: "x", ID: 2, Start: 10, End: 30, Count: 6},
	})
	if selfNS["x"] != 30 || calls["x"] != 10 {
		t.Errorf("layer totals = %d ns over %d calls, want 30 over 10", selfNS["x"], calls["x"])
	}
}

func TestPayloadCarriesBlockAndVersion(t *testing.T) {
	b := make([]byte, payloadSize)
	fillPayload(b, 77, 9)
	if v, err := checkPayload(b, 77); err != nil || v != 9 {
		t.Fatalf("checkPayload = %d, %v; want 9, nil", v, err)
	}
	if _, err := checkPayload(b, 78); err == nil {
		t.Error("a payload of block 77 passed as block 78")
	}
	b[5000] ^= 1
	if _, err := checkPayload(b, 77); err == nil {
		t.Error("a flipped bit passed the checksum")
	}
	if _, err := checkPayload(b[:100], 77); err == nil {
		t.Error("a short payload passed")
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (qosd (x) y) S 1 4242 4242 0 -1 4194560 500 0 0 0 150 50 0 0 20 0 5 0 100 1000000 300 18446744073709551615"
	if s, err := parseStatCPU(stat); err != nil || s != 2.0 {
		t.Errorf("parseStatCPU = %v, %v; want 2 s (150+50 ticks)", s, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("garbage parsed as a stat line")
	}
	status := "Name:\tqosd\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	if mb, err := parseVmHWM(status); err != nil || mb != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20 MiB", mb, err)
	}
}

func TestStealWindows(t *testing.T) {
	stat := "cpu  100 0 50 900 5 0 3 250 0 0\ncpu0 60 0 20 450 2 0 1 100 0 0\ncpu1 40 0 30 450 3 0 2 150 0 0\nintr 12345\n"
	if s, cpus, err := parseSteal(stat); err != nil || s != 2.5 || cpus != 2 {
		t.Errorf("parseSteal = %v s on %d cores, %v; want 2.5 s (250 ticks) on 2", s, cpus, err)
	}
	if _, _, err := parseSteal("intr 1 2 3\n"); err == nil {
		t.Error("a /proc/stat without cpu lines parsed")
	}

	// Four windows of 0.5 s on two cores (1 CPU-second each): steal of
	// 0, 0.01 (1 %), 0.1 (10 %) and 0.015 (1.5 %).
	half := int64(500 * time.Millisecond)
	w := stealWindows{cpus: 2, ticks: []stealTick{{0, 7}, {half, 7}, {2 * half, 7.01}, {3 * half, 7.11}, {4 * half, 7.125}}}
	keep, use := w.quiet()
	if want := []bool{true, true, false, true}; len(keep) != 4 || keep[0] != want[0] || keep[1] != want[1] || keep[2] != want[2] || keep[3] != want[3] {
		t.Errorf("quiet windows = %v, want %v", keep, want)
	}
	if !use.filtered || use.windows != 4 || use.quiet != 3 || math.Abs(use.total-0.125/4) > 1e-9 {
		t.Errorf("use = %+v, want 3 of 4 windows quiet, filtered, total %v", use, 0.125/4)
	}
	for _, c := range []struct {
		t    int64
		want int
	}{{-1, -1}, {0, 0}, {half - 1, 0}, {half, 1}, {4*half - 1, 3}, {4 * half, -1}} {
		if got := w.window(c.t); got != c.want {
			t.Errorf("window(%d) = %d, want %d", c.t, got, c.want)
		}
	}

	// With the host on the cores nearly throughout, nothing is left out.
	w = stealWindows{cpus: 2, ticks: []stealTick{{0, 0}, {half, 0.2}, {2 * half, 0.4}, {3 * half, 0.4}, {4 * half, 0.6}}}
	keep, use = w.quiet()
	if use.filtered || use.quiet != 1 || !keep[0] || !keep[1] || !keep[2] || !keep[3] {
		t.Errorf("one quiet window of four: keep %v use %+v, want every window kept and filtered=false", keep, use)
	}
}

func TestWakeScale(t *testing.T) {
	admit, _ := findWorkload("admit")
	if r, w := wakeScale(admit, 2*admit.refWakeUS); r != 0.5 || w != 0.5 {
		t.Errorf("admit at twice the reference wake-up: scales %v %v, want 0.5 0.5", r, w)
	}
	pack, _ := findWorkload("pack_write")
	if r, w := wakeScale(pack, pack.refWakeUS/2); r != 2 || w != 1 {
		t.Errorf("pack_write at half the reference wake-up: scales %v %v, want 2 and an unscaled PUT", r, w)
	}
	if r, w := wakeScale(admit, 0); r != 1 || w != 1 {
		t.Errorf("no lateness measured: scales %v %v, want 1 1", r, w)
	}
	for _, w := range workloads {
		if w.refWakeUS <= 0 {
			t.Errorf("%s has no reference wake-up cost", w.name)
		}
	}
}

func TestWorseFollowsDirection(t *testing.T) {
	lower := specMetric{Better: "lower"}
	higher := specMetric{Better: "higher"}
	if got := worse(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency 100→110 is %v worse, want 0.10", got)
	}
	if got := worse(higher, 100, 110); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("throughput 100→110 is %v worse, want -0.10", got)
	}
}

// BENCHMARK.json is the contract; the binary must print exactly the
// workloads and metrics it names, with the same units and directions.
func TestBenchmarkJSONNamesWhatTheBinaryPrints(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the binary %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var setup, widest float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
		widest = math.Max(widest, m.Bound)
	}
	if setup != widest {
		t.Errorf("setup_s has bound %v; it is the noisiest metric and must have the widest (%v)", setup, widest)
	}
}
