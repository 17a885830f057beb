package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions; a unit test keeps the two equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the array sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_s", "1/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"read_ontime_frac", "frac", "higher"},
	{"write_ontime_frac", "frac", "higher"},
	{"ok_frac", "frac", "higher"},
	{"space_amp", "ratio", "lower"},
}

// perLayer is what the traced run reports, layer by layer. A metric of a
// layer the workload does not touch reads 0.
var perLayer = []metricDef{
	{"loadgen.late_p50_us", "us", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.late_max_us", "us", "lower"},
	{"loadgen.svc_read_p50_us", "us", "lower"},
	{"loadgen.read_p90_us", "us", "lower"},
	{"loadgen.read_p99_us", "us", "lower"},
	{"loadgen.read_p999_us", "us", "lower"},
	{"loadgen.read_max_us", "us", "lower"},
	{"loadgen.write_p90_us", "us", "lower"},
	{"loadgen.write_p99_us", "us", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"loadgen.trace_overhead_frac", "frac", "lower"},

	{"qosd.cpu_us_per_op", "us", "lower"},
	{"qosd.rss_mb", "MiB", "lower"},
	{"qosd.start_s", "s", "lower"},
	{"qosd.recover_s", "s", "lower"},
	{"qosproxy.cpu_us_per_op", "us", "lower"},
	{"qosproxy.rss_mb", "MiB", "lower"},

	{"wire.encode_req_ns", "ns", "lower"},
	{"wire.decode_req_ns", "ns", "lower"},
	{"wire.encode_resp_ns", "ns", "lower"},
	{"wire.decode_resp_ns", "ns", "lower"},
	{"wire.allocs_per_op", "count", "lower"},
	{"wire.bytes_per_op", "B", "lower"},

	{"qosnet.rtt_p50_us", "us", "lower"},
	{"qosnet.residual_us", "us", "lower"},
	{"qosnet.replies_per_read", "count", "higher"},
	{"qosnet.metrics_scrape_us", "us", "lower"},

	{"shard.route_ns", "ns", "lower"},
	{"shard.submit_ns", "ns", "lower"},
	{"shard.burst_ns_per_req", "ns", "lower"},
	{"shard.imbalance", "ratio", "lower"},

	{"core.admit_ns", "ns", "lower"},
	{"core.admit_write_ns", "ns", "lower"},
	{"core.admit_stat_ns", "ns", "lower"},
	{"core.self_ns", "ns", "lower"},
	{"core.delayed_frac", "frac", "lower"},
	{"core.rejected_frac", "frac", "lower"},
	{"core.delay_ms_mean", "ms", "lower"},
	{"core.viol_frac", "frac", "lower"},
	{"core.q_estimate", "frac", "lower"},
	{"core.within_priced_frac", "frac", "higher"},

	{"admission.gate_ns", "ns", "lower"},
	{"admission.over_limit_frac", "frac", "lower"},
	{"admission.gold_share", "frac", "higher"},
	{"admission.reservation_deficit", "count", "lower"},

	{"retrieval.online_submit_ns", "ns", "lower"},
	{"retrieval.device_spread", "ratio", "lower"},

	{"pack.put_us", "us", "lower"},
	{"pack.put_nosync_us", "us", "lower"},
	{"pack.sync_wait_share", "frac", "lower"},
	{"pack.get_us", "us", "lower"},
	{"pack.bytes_per_user_byte", "ratio", "lower"},
	{"pack.garbage_frac", "frac", "lower"},
	{"pack.compact_s", "s", "lower"},
	{"pack.compact_mb_s", "MB/s", "higher"},
	{"pack.recover_s", "s", "lower"},
	{"pack.recover_mb_s", "MB/s", "higher"},

	{"proxy.hop_p50_us", "us", "lower"},

	{"health.report_ns", "ns", "lower"},
	{"health.mask_ns", "ns", "lower"},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Info holds what is printed but not gated: tails, sample counts,
	// build time, the per-op budget.
	Info  map[string]float64 `json:"info,omitempty"`
	Notes []string           `json:"notes,omitempty"`
}

func newResult(w workload, traced bool) *result {
	return &result{Workload: w.name, Traced: traced, Correct: true,
		Metrics: make(map[string]value), Info: make(map[string]float64)}
}

// set records metrics by name; defs supplies the unit, and a name outside
// defs is a bug in the benchmark.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = value{v, d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func (r *result) fail(format string, a ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// print writes every metric by name and unit, then the extras, then the
// one-line JSON object the driver reads (last line of the run).
func (r *result) print(defs []metricDef) {
	fmt.Printf("\n== %s (traced=%v) ==\n", r.Workload, r.Traced)
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Printf("%-34s %16.6g %s\n", d.name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %16.6g\n", k, r.Info[k])
	}
	for _, n := range r.Notes {
		fmt.Println("# " + n)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}

// runRecord is the file form of a run: the result plus what is needed to
// judge whether two records are comparable.
type runRecord struct {
	Date       string  `json:"date"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Comparable bool    `json:"comparable"` // false when seconds differs from BENCHMARK.json's run_seconds
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go"`
	Conns      int     `json:"connections"`
	*result
	Spans []span `json:"spans,omitempty"`
}

// writeRecord writes the measured run as BENCH_<yyyymmdd>_<workload>.json
// and the traced run, spans included, as trace_<workload>.json.
func writeRecord(cfg *config, r *result, spans []span, sameLength bool) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	now := time.Now()
	name := fmt.Sprintf("BENCH_%s_%s.json", now.Format("20060102"), r.Workload)
	if r.Traced {
		name = fmt.Sprintf("trace_%s.json", r.Workload)
	}
	rec := runRecord{
		Date: now.Format(time.RFC3339), Seed: cfg.seed, Seconds: cfg.seconds, Comparable: sameLength,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Conns: cfg.conns,
		result: r, Spans: spans,
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(cfg.outDir, name)
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
