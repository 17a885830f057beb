package main

import (
	"fmt"
	"sort"
	"time"
)

// metricsScrapes is how many METRICS round trips the scrape time is the
// median of.
const metricsScrapes = 21

// runTraced is the run the per-layer metrics come from. The live half
// repeats the paced phase with a benchmark-side span around every request
// (after a short untraced one, so the tracing overhead is a measured
// number) and a saturated phase bracketed by the daemons' own counters;
// the in-process half times each layer from outside (layerBench). The
// measuring time is split: an eighth untraced paced, a quarter traced
// paced, a quarter saturated; the rest is the in-process half's budget.
func runTraced(cfg *config, w workload) (*result, []span, error) {
	r := newResult(w, true)
	ops, err := genOps(w, cfg.seed, streamLen)
	if err != nil {
		return nil, nil, err
	}
	e, err := setUp(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	defer e.tearDown()
	clk := clock{time.Now()}
	l, err := goLive(e, ops, clk)
	if err != nil {
		return nil, nil, err
	}
	defer l.close()
	spans := &spanLog{}

	base, err := l.runPaced(cfg.phase(8), nil)
	if err != nil {
		return nil, nil, err
	}
	pr, err := l.runPaced(cfg.phase(4), spans)
	if err != nil {
		return nil, nil, err
	}
	paced := l.g.totals()
	pacedStats, err := l.stats()
	if err != nil {
		return nil, nil, err
	}

	// Saturated phase, bracketed by CPU time and reply counters.
	cpu0, err := e.cpu()
	if err != nil {
		return nil, nil, err
	}
	replied0 := l.g.replied()
	phase := cfg.phase(4)
	sat, err := l.g.saturated(ops, base.sent+pr.sent, phase, phase/6)
	if err != nil {
		return nil, nil, err
	}
	if err := e.alive(); err != nil {
		return nil, nil, err
	}
	cpu1, err := e.cpu()
	if err != nil {
		return nil, nil, err
	}
	t := l.tally(r, base.lost+pr.lost+sat.lost)
	satReplies := float64(l.g.replied() - replied0)

	// loadgen: the socket-side view of the traced paced phase.
	reads := latenciesUS(pr.samples, false, true)
	writes := latenciesUS(pr.samples, true, true)
	late := latenessUS(pr.samples)
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	set("loadgen.late_p50_us", quantile(late, 0.5))
	set("loadgen.late_p99_us", first(tail(late, 0.99)))
	r.noteLateness(r.Metrics["loadgen.late_p99_us"].Value)
	r.noteSteal("paced", pr.steal)
	r.noteSteal("saturated", sat.steal)
	set("loadgen.late_max_us", quantile(late, 1))
	set("loadgen.svc_read_p50_us", quantile(latenciesUS(pr.samples, false, false), 0.5))
	set("loadgen.read_p90_us", first(tail(reads, 0.9)))
	set("loadgen.read_p99_us", first(tail(reads, 0.99)))
	p999, supported := tail(reads, 0.999)
	set("loadgen.read_p999_us", p999)
	if !supported {
		r.Notes = append(r.Notes, fmt.Sprintf("loadgen.read_p999_us: %d reads leave fewer than %d beyond p99.9; the highest supported rank is shown", len(reads), tailMinBeyond))
	}
	set("loadgen.read_max_us", quantile(reads, 1))
	set("loadgen.write_p90_us", first(tail(writes, 0.9)))
	set("loadgen.write_p99_us", first(tail(writes, 0.99)))
	set("loadgen.samples", float64(len(pr.samples)))
	if b := quantile(latenciesUS(base.samples, false, true), 0.5); b > 0 {
		set("loadgen.trace_overhead_frac", quantile(reads, 0.5)/b-1)
	}
	within := 0
	for _, s := range pr.samples {
		if s.ok && float64(s.done-s.due)/1e6 <= s.pricedMS {
			within++
		}
	}
	set("core.within_priced_frac", float64(within)/float64(len(pr.samples)))

	// The daemons, seen from /proc and their stats verbs.
	var qosdCPU, proxyCPU float64
	for i, c := range e.children() {
		d := cpu1[i] - cpu0[i]
		rss, err := c.rssMB()
		if err != nil {
			return nil, nil, err
		}
		if c == e.proxy {
			proxyCPU += d
			set("qosproxy.rss_mb", rss)
		} else {
			qosdCPU += d
			set("qosd.rss_mb", max(rss, r.Metrics["qosd.rss_mb"].Value))
		}
	}
	set("qosd.cpu_us_per_op", qosdCPU*1e6/satReplies)
	set("qosproxy.cpu_us_per_op", proxyCPU*1e6/satReplies)
	set("qosd.start_s", e.startS)
	set("qosnet.replies_per_read", satReplies/float64(t.fills-paced.fills))
	set("retrieval.device_spread", maxOverMean(floats(t.perDevice)))

	// The admission figures are the paced phases': arrivals below capacity
	// are the regime the guarantee is stated for (the saturated phase
	// offers many times S per window, so nearly everything is priced with
	// a delay there).
	pacedReqs := pacedStats.reqs - l.stats0.reqs
	pacedDelayed := pacedStats.delayed - l.stats0.delayed
	set("core.viol_frac", ratio(paced.violations, paced.admitted))
	set("core.delayed_frac", ratio(pacedDelayed, pacedReqs))
	set("core.rejected_frac", ratio(pacedStats.rejected-l.stats0.rejected, pacedReqs))
	if pacedDelayed > 0 {
		set("core.delay_ms_mean", (pacedStats.delaySumMS-l.stats0.delaySumMS)/float64(pacedDelayed))
	}
	gauges, err := l.admin.ShardStats()
	if err != nil {
		return nil, nil, fmt.Errorf("SHARDSTATS: %w", err)
	}
	set("shard.imbalance", shardImbalance(gauges))
	var q []float64
	for _, g := range gauges {
		q = append(q, g.Q)
	}
	set("core.q_estimate", mean(q))
	if len(w.tenants) > 0 {
		entries, err := l.admin.TenantStats()
		if err != nil {
			return nil, nil, fmt.Errorf("TENANTSTATS: %w", err)
		}
		var overLimit, deficit, seen int64
		for _, en := range entries {
			overLimit += en.OverLimit
			deficit += en.Deficit
			seen += en.Admitted + en.Rejected
		}
		set("admission.over_limit_frac", ratio(overLimit, seen))
		set("admission.reservation_deficit", float64(deficit))
		// Tenant 1 is gold; its share of what was admitted while both
		// tenants kept the pipeline full.
		gold := t.perTenant[1] - paced.perTenant[1]
		set("admission.gold_share", ratio(gold, t.admitted-paced.admitted))
	}
	var scrapes []float64
	for i := 0; i < metricsScrapes; i++ {
		t0 := time.Now()
		if _, err := l.admin.Metrics(); err != nil {
			return nil, nil, fmt.Errorf("METRICS: %w", err)
		}
		scrapes = append(scrapes, float64(time.Since(t0))/1e3)
	}
	set("qosnet.metrics_scrape_us", median(scrapes))

	if w.pack {
		restartS, err := e.crashAndReadBack(l.g)
		if err != nil {
			r.fail("%v", err)
		}
		set("qosd.recover_s", restartS)
	}
	// The daemons are done; the in-process half gets the machine to itself.
	l.close()
	e.tearDown()

	lb := &layerBench{w: w, cfg: cfg, clk: clk, spans: spans, r: r, perOp: make(map[string]float64)}
	n := replayTimingOps
	if w.pack {
		n = replayPackOps
	}
	lb.ops = ops[:n]
	lb.dueMS = make([]float64, n)
	for i, d := range genDues(cfg.seed, w.rate, time.Duration(float64(n)/w.rate*2*float64(time.Second))) {
		if i == n {
			break
		}
		lb.dueMS[i] = float64(d) / 1e6
	}
	if err := lb.run(); err != nil {
		return nil, nil, err
	}
	r.Info["saturated.ops_s"] = sat.opsPerSec
	sort.Slice(spans.spans, func(i, j int) bool { return spans.spans[i].Start < spans.spans[j].Start })
	return r, spans.spans, nil
}

// phase is 1/parts of the run's measuring time.
func (cfg *config) phase(parts int) time.Duration {
	return time.Duration(cfg.seconds / float64(parts) * float64(time.Second))
}

// cpu reads every child's CPU seconds, in children() order.
func (e *env) cpu() ([]float64, error) {
	var out []float64
	for _, c := range e.children() {
		s, err := c.cpuSeconds()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func first(v float64, _ bool) float64 { return v }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func floats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
