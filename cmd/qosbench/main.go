// Command qosbench regenerates the paper's tables and figures from the
// experiment harness and prints them as text tables/series.
//
// Usage:
//
//	qosbench -run all
//	qosbench -run table3 -requests 10000
//	qosbench -run fig10 -scale 0.1 -seed 7
//
// Experiments: table1, table2, table3, table4, fig2, fig3, fig4, fig6,
// fig7, fig8, fig9, fig10, fig11, fig12, guarantees, schemes, fim,
// maxflow, designs, gc, hetero, failure, arraygc, fairness, mclock,
// confidence, spatial, closedloop, sweep, shards, statpar, all.
// Use -parallel to run the selection concurrently. -cpuprofile/-memprofile
// write pprof profiles of the run. The output of -run all -scale 0.1
// -seed 42 is pinned, wall-clock fields masked, by testdata/golden_seed42.txt.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"flashqos/internal/experiments"
)

// config carries the flags the experiments read.
type config struct {
	seed     int64
	scale    float64
	requests int // synthetic requests for table3
	trials   int // sampling trials for fig4/table2
	seeds    int // seeds for the confidence experiment
}

// defaults are the flag defaults.
var defaults = config{seed: 42, scale: 0.1, requests: 10000, trials: 20000, seeds: 5}

// experiment is one qosbench section: its -run name and its printer.
type experiment struct {
	name string
	run  func(w io.Writer, c config) error
}

// experimentTable lists every experiment in -run all order.
var experimentTable = []experiment{
	{"table1", func(w io.Writer, c config) error { return printTable1(w) }},
	{"fig2", func(w io.Writer, c config) error { return printFig2(w) }},
	{"fig3", func(w io.Writer, c config) error { return printFig3(w) }},
	{"fig4", func(w io.Writer, c config) error { return printFig4(w, c.trials, c.seed) }},
	{"table2", func(w io.Writer, c config) error { return printTable2(w, c.trials, c.seed) }},
	{"table3", func(w io.Writer, c config) error { return printTable3(w, c.requests, c.seed) }},
	{"fig7", func(w io.Writer, c config) error { return printFig7(w) }},
	{"fig6", func(w io.Writer, c config) error { return printFig6(w, c.seed, c.scale) }},
	{"fig8", func(w io.Writer, c config) error { return printFig89(w, experiments.Exchange, c.seed, c.scale) }},
	{"fig9", func(w io.Writer, c config) error { return printFig89(w, experiments.TPCE, c.seed, c.scale) }},
	{"fig10", func(w io.Writer, c config) error { return printFig10(w, c.seed, c.scale) }},
	{"table4", func(w io.Writer, c config) error { return printTable4(w, c.seed, c.scale) }},
	{"fig11", func(w io.Writer, c config) error { return printFig11(w, c.seed, c.scale) }},
	{"fig12", func(w io.Writer, c config) error { return printFig12(w, c.seed, c.scale) }},
	{"guarantees", func(w io.Writer, c config) error { return printGuarantees(w) }},
	{"schemes", func(w io.Writer, c config) error { return printSchemes(w, c.seed) }},
	{"fim", func(w io.Writer, c config) error { return printFIMAblation(w, c.seed, c.scale) }},
	{"maxflow", func(w io.Writer, c config) error { return printMaxflowAblation(w, c.seed) }},
	{"designs", func(w io.Writer, c config) error { return printDesigns(w) }},
	{"gc", func(w io.Writer, c config) error { return printGCAblation(w, c.seed) }},
	{"hetero", func(w io.Writer, c config) error { return printHeteroAblation(w, c.seed) }},
	{"failure", func(w io.Writer, c config) error { return printFailureAblation(w, c.seed) }},
	{"arraygc", func(w io.Writer, c config) error { return printArrayGC(w, c.seed) }},
	{"fairness", func(w io.Writer, c config) error { return printFairness(w, c.seed) }},
	{"mclock", func(w io.Writer, c config) error { return printMClock(w, c.seed) }},
	{"confidence", func(w io.Writer, c config) error { return printConfidence(w, c.seed, c.scale, c.seeds) }},
	{"spatial", func(w io.Writer, c config) error { return printSpatial(w, c.seed) }},
	{"closedloop", func(w io.Writer, c config) error { return printClosedLoop(w, c.seed) }},
	{"sweep", func(w io.Writer, c config) error { return printSweep(w, c.seed, c.scale) }},
	{"shards", func(w io.Writer, c config) error { return printShardScaling(w) }},
	{"statpar", func(w io.Writer, c config) error { return printStatParallel(w, c.seed, c.scale) }},
}

// selectExperiments resolves a -run value ("all" or comma-separated names).
func selectExperiments(run string) ([]experiment, error) {
	if run == "all" {
		return experimentTable, nil
	}
	var out []experiment
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(experimentTable, func(e experiment) bool { return e.name == name })
		if i < 0 {
			names := make([]string, len(experimentTable))
			for j, e := range experimentTable {
				names[j] = e.name
			}
			return nil, fmt.Errorf("unknown experiment %q; known: %s", name, strings.Join(names, ", "))
		}
		out = append(out, experimentTable[i])
	}
	return out, nil
}

// writeSection prints one experiment under its banner, followed by a
// blank line once it succeeds.
func writeSection(w io.Writer, e experiment, c config) error {
	fmt.Fprintf(w, "==================== %s ====================\n", e.name)
	if err := e.run(w, c); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func main() {
	var (
		c        config
		run      = flag.String("run", "all", "experiment to run (comma-separated, or 'all')")
		parallel = flag.Bool("parallel", false, "run the selected experiments concurrently")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Int64Var(&c.seed, "seed", defaults.seed, "workload seed")
	flag.Float64Var(&c.scale, "scale", defaults.scale, "trace scale factor (1.0 = full calibrated size)")
	flag.IntVar(&c.requests, "requests", defaults.requests, "synthetic requests for table3")
	flag.IntVar(&c.trials, "trials", defaults.trials, "sampling trials for fig4/table2")
	flag.IntVar(&c.seeds, "seeds", defaults.seeds, "seeds for the confidence experiment")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	jobs, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !*parallel {
		for _, e := range jobs {
			if err := writeSection(os.Stdout, e, c); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
		return
	}
	// Parallel: each experiment writes into its own buffer; results print
	// in the requested order once all goroutines finish.
	bufs := make([]bytes.Buffer, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, e := range jobs {
		wg.Add(1)
		go func(i int, e experiment) {
			defer wg.Done()
			errs[i] = writeSection(&bufs[i], e, c)
		}(i, e)
	}
	wg.Wait()
	for i, e := range jobs {
		io.Copy(os.Stdout, &bufs[i])
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, errs[i])
			os.Exit(1)
		}
	}
}

func printTable1(w io.Writer) error {
	res := experiments.TableI()
	fmt.Fprintln(w, "Admission (S = 5, (9,3,1) design, M = 1):")
	for _, a := range res.AdmittedApps {
		fmt.Fprintf(w, "  admitted: %s\n", a)
	}
	for _, r := range res.RejectedApps {
		fmt.Fprintf(w, "  rejected: %s\n", r)
	}
	fmt.Fprintln(w, "Retrieval (Fig 5):")
	for _, p := range res.Periods {
		fmt.Fprintf(w, "  %s: %d requests in %d access(es)\n", p.Period, len(p.Requests), p.Accesses)
	}
	return nil
}

func printFig2(w io.Writer) error {
	d := experiments.Fig2Design()
	fmt.Fprintln(w, d)
	for _, b := range d.Blocks {
		fmt.Fprintf(w, "  %v\n", b)
	}
	return d.Verify()
}

func printFig3(w io.Writer) error {
	m, assign := experiments.Fig3NonConflicting()
	fmt.Fprintf(w, "9 non-conflicting requests retrieved in %d access(es)\n", m)
	fmt.Fprintf(w, "assignment: %v\n", assign)
	return nil
}

func printFig7(w io.Writer) error {
	layouts, err := experiments.Fig7Layouts(12)
	if err != nil {
		return err
	}
	for _, l := range layouts {
		fmt.Fprintf(w, "%s\n  blocks:  ", l.Scheme)
		for b, devs := range l.Buckets {
			fmt.Fprintf(w, "b%d%v ", b, devs)
		}
		fmt.Fprintf(w, "\n  devices: ")
		for d, bs := range l.Devices {
			fmt.Fprintf(w, "d%d%v ", d, bs)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func printFig4(w io.Writer, trials int, seed int64) error {
	tab, err := experiments.Fig4Probabilities(trials, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Optimal retrieval probabilities, (9,3,1), %d trials:\n", trials)
	for k := 1; k <= tab.MaxK(); k++ {
		fmt.Fprintf(w, "  P[%2d] = %.4f\n", k, tab.At(k))
	}
	return nil
}

func printTable2(w io.Writer, trials int, seed int64) error {
	rows, err := experiments.TableIIRetrievalComparison(trials, seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %s\n", r)
	}
	return nil
}

func printTable3(w io.Writer, requests int, seed int64) error {
	rows, err := experiments.TableIIIAllocationComparison(requests, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Response times (ms), %d requests per workload:\n", requests)
	for _, r := range rows {
		fmt.Fprintf(w, "  %s\n", r)
	}
	return nil
}

func printFig6(w io.Writer, seed int64, scale float64) error {
	ex, tp, err := experiments.Fig6TraceStats(seed, scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Exchange-like trace (interval: total, avg/s, max/s):")
	var exTotals []float64
	for _, s := range ex {
		fmt.Fprintf(w, "  %3d: %7d %9.1f %9.1f\n", s.Interval, s.Total, s.AvgPerSec, s.MaxPerSec)
		exTotals = append(exTotals, float64(s.Total))
	}
	fmt.Fprintf(w, "  shape: %s\n", spark(downsample(exTotals, 64)))
	fmt.Fprintln(w, "TPC-E-like trace:")
	for _, s := range tp {
		fmt.Fprintf(w, "  %3d: %7d %9.1f %9.1f\n", s.Interval, s.Total, s.AvgPerSec, s.MaxPerSec)
	}
	return nil
}

func printFig89(w io.Writer, wl experiments.Workload, seed int64, scale float64) error {
	res, err := experiments.DeterministicQoS(wl, seed, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: deterministic QoS vs original stand\n", wl)
	fmt.Fprintf(w, "  %-4s %10s %10s %10s %10s %9s %9s\n",
		"int", "qos-avg", "qos-max", "orig-avg", "orig-max", "delayed%", "avgdelay")
	for i, iv := range res.QoS.Intervals {
		var oAvg, oMax float64
		if i < len(res.Original.Intervals) {
			oAvg = res.Original.Intervals[i].AvgResponse
			oMax = res.Original.Intervals[i].MaxResponse
		}
		fmt.Fprintf(w, "  %-4d %10.4f %10.4f %10.4f %10.4f %8.2f%% %9.4f\n",
			iv.Index, iv.AvgResponse, iv.MaxResponse, oAvg, oMax, iv.DelayedPct, iv.AvgDelay)
	}
	var delayedSeries []float64
	for _, iv := range res.QoS.Intervals {
		delayedSeries = append(delayedSeries, iv.DelayedPct)
	}
	fmt.Fprintf(w, "delayed%% shape: %s\n", spark(downsample(delayedSeries, 64)))
	fmt.Fprintf(w, "overall: qos avg/max %.4f/%.4f  orig avg/max %.4f/%.4f  delayed %.2f%% avg delay %.4f ms\n",
		res.QoS.AvgResponse, res.QoS.MaxResponse,
		res.Original.AvgResponse, res.Original.MaxResponse,
		res.QoS.DelayedPct, res.QoS.AvgDelay)
	return nil
}

func printFig10(w io.Writer, seed int64, scale float64) error {
	for _, wl := range []experiments.Workload{experiments.Exchange, experiments.TPCE} {
		rows, err := experiments.Fig10Statistical(wl, experiments.Fig10Epsilons, seed, scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: statistical QoS sweep\n", wl)
		for _, r := range rows {
			fmt.Fprintf(w, "  eps=%.4f delayed=%6.2f%% avg-response=%.4f ms\n", r.Epsilon, r.DelayedPct, r.AvgResponse)
		}
	}
	return nil
}

func printTable4(w io.Writer, seed int64, scale float64) error {
	rows, err := experiments.TableIVFIMPerformance(seed, scale)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %s\n", r)
	}
	return nil
}

func printFig11(w io.Writer, seed int64, scale float64) error {
	for _, wl := range []experiments.Workload{experiments.Exchange, experiments.TPCE} {
		rows, mean, err := experiments.Fig11FIMBenefit(wl, seed, scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: FIM match per interval (mean %.1f%%)\n", wl, mean)
		var series []float64
		for _, r := range rows {
			fmt.Fprintf(w, "  %3d: %6.2f%%\n", r.Interval, r.MatchPct)
			series = append(series, r.MatchPct)
		}
		fmt.Fprintf(w, "  shape: %s\n", spark(downsample(series, 64)))
	}
	return nil
}

func printFig12(w io.Writer, seed int64, scale float64) error {
	for _, wl := range []experiments.Workload{experiments.Exchange, experiments.TPCE} {
		rows, err := experiments.Fig12RetrievalComparison(wl, seed, scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: average delay per interval (ms), online vs interval-aligned\n", wl)
		var on, al float64
		for _, r := range rows {
			fmt.Fprintf(w, "  %3d: online %.4f  aligned %.4f\n", r.Interval, r.OnlineAvgDelay, r.AlignedAvgDelay)
			on += r.OnlineAvgDelay
			al += r.AlignedAvgDelay
		}
		if n := float64(len(rows)); n > 0 {
			fmt.Fprintf(w, "  mean: online %.4f  aligned %.4f  (online lower by %.4f)\n", on/n, al/n, (al-on)/n)
		}
	}
	return nil
}

func printGuarantees(w io.Writer) error {
	fmt.Fprintln(w, "c=2 guarantees: design-theoretic vs orthogonal (§II-B3):")
	for _, r := range experiments.GuaranteeComparison(15) {
		fmt.Fprintf(w, "  b=%2d design=%d orthogonal=%d\n", r.Buckets, r.DesignAccesses, r.OrthAccesses)
	}
	return nil
}

func printSchemes(w io.Writer, seed int64) error {
	rows, err := experiments.AblationSchemes(5, 2000, seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		q := "arbitrary"
		if r.Query == experiments.Range {
			q = "range"
		}
		fmt.Fprintf(w, "  %-26s %-9s size=%d avg=%.3f max=%d\n", r.Scheme, q, r.Size, r.AvgCost, r.MaxCost)
	}
	return nil
}

func printFIMAblation(w io.Writer, seed int64, scale float64) error {
	res, err := experiments.AblationFIM(experiments.TPCE, seed, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  with FIM:    delayed %.2f%%, avg delay %.4f ms\n", res.WithFIM.DelayedPct, res.WithFIM.AvgDelay)
	fmt.Fprintf(w, "  modulo only: delayed %.2f%%, avg delay %.4f ms\n", res.ModuloOnly.DelayedPct, res.ModuloOnly.AvgDelay)
	return nil
}

func printMaxflowAblation(w io.Writer, seed int64) error {
	rows, err := experiments.AblationMaxflow(12, 2000, seed)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  size=%2d fallback=%5.1f%% greedy-avg=%.3f optimal-avg=%.3f greedy-worse=%.2f%%\n",
			r.Size, r.FallbackPct, r.GreedyAvg, r.OptimalAvg, r.GreedyWorse)
	}
	return nil
}

func printGCAblation(w io.Writer, seed int64) error {
	rows, err := experiments.AblationGCInterference([]float64{0, 0.1, 0.2, 0.5}, 20000, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "read latency on one SSD module vs write fraction (GC interference):")
	for _, r := range rows {
		fmt.Fprintf(w, "  writes=%.0f%%  read avg=%.4f p99=%.4f max=%.4f ms  gc=%d moved=%d\n",
			100*r.WriteFrac, r.ReadAvgMS, r.ReadP99MS, r.ReadMaxMS, r.GCRuns, r.MovedPages)
	}
	return nil
}

func printFailureAblation(w io.Writer, seed int64) error {
	rows, err := experiments.AblationFailure(2, 2000, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(9,3,1) with failed modules, 5-bucket requests on survivors:")
	for _, r := range rows {
		fmt.Fprintf(w, "  failed=%d  available=%.0f%%  avg-accesses=%.3f max=%d  within-guarantee=%.1f%%\n",
			r.Failed, r.Available, r.AvgAccesses, r.MaxAccesses, r.GuaranteeOK)
	}
	return nil
}

func printHeteroAblation(w io.Writer, seed int64) error {
	rows, err := experiments.AblationHeterogeneous(2.0, 1000, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "makespan-aware vs access-count retrieval with 2x-slow modules:")
	for _, r := range rows {
		fmt.Fprintf(w, "  slow=%d  access-count=%.4f ms  makespan-aware=%.4f ms  speedup=%.2fx\n",
			r.SlowModules, r.AccessesMS, r.MakespanMS, r.Improvement)
	}
	return nil
}

func printArrayGC(w io.Writer, seed int64) error {
	rows, err := experiments.AblationArrayGC([]float64{0, 0.1, 0.3, 0.5}, 5000, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "QoS steering over FTL-backed modules, background writes:")
	for _, r := range rows {
		fmt.Fprintf(w, "  writes=%.0f%%  plan-max=%.4f  realized avg=%.4f p99=%.4f max=%.4f  within-guarantee=%.1f%%  gc=%d\n",
			100*r.WriteFrac, r.PlannedMaxMS, r.RealizedAvgMS, r.RealizedP99MS, r.RealizedMaxMS, r.GuaranteePct, r.GCRuns)
	}
	return nil
}

func printFairness(w io.Writer, seed int64) error {
	res, err := experiments.AblationFairness(4, 5000, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "four identical tenants sharing one QoS array (FCFS admission):")
	for _, tn := range res.Tenants {
		fmt.Fprintf(w, "  tenant %d: %d requests, delayed %.2f%%, avg delay %.4f ms\n",
			tn.Tenant, tn.Requests, tn.DelayedPct, tn.AvgDelay)
	}
	fmt.Fprintf(w, "  Jain fairness index: %.4f\n", res.JainIndex)
	return nil
}

func printMClock(w io.Writer, seed int64) error {
	rows, err := experiments.AblationMClock(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "victim latency under a bursty aggressor (arrival to completion, ms):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s avg=%.4f p99=%.4f max=%.4f flat-response=%v aggressor-shaped=%d\n",
			r.System, r.VictimAvgMS, r.VictimP99MS, r.VictimMaxMS, r.VictimFlatNs, r.AggressorShaped)
	}
	return nil
}

func printConfidence(w io.Writer, seed int64, scale float64, n int) error {
	rows, err := experiments.MultiSeed(experiments.Seeds(seed, n), experiments.HeadlineMetrics(scale))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "headline metrics across %d workload seeds (mean ± std):\n", n)
	for _, r := range rows {
		fmt.Fprintf(w, "  %s\n", r)
	}
	return nil
}

func printSpatial(w io.Writer, seed int64) error {
	rows, err := experiments.AblationSpatialQueries(5, 2000, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "retrieval cost by query shape on the 6x6 bucket grid (size-5 queries):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %-10v avg=%.3f max=%d\n", r.Scheme, r.Query, r.AvgCost, r.MaxCost)
	}
	return nil
}

func printClosedLoop(w io.Writer, seed int64) error {
	res, err := experiments.AblationClosedLoop(5000, []int{2, 2, 1, 2}, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "closed-loop applications over %d periods (S=5): %d rejected at admission\n", res.Periods, res.RejectedN)
	for _, a := range res.Admitted {
		fmt.Fprintf(w, "  app %s size=%d: %d requests, max response %.6f ms, delayed %.2f%%\n",
			a.App, a.Size, a.Requests, a.MaxResponse, a.DelayedPct)
	}
	return nil
}

func printSweep(w io.Writer, seed int64, scale float64) error {
	rows, err := experiments.SweepDesigns(seed, scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "tunability: the same workload across (N, c, M) configurations:")
	for _, r := range rows {
		fmt.Fprintf(w, "  (%2d,%d,1) M=%d S=%2d: delayed %6.2f%%  avg delay %.4f ms  utilization %.4f\n",
			r.N, r.C, r.M, r.S, r.DelayedPct, r.AvgDelay, r.Utilization)
	}
	return nil
}

func printShardScaling(w io.Writer) error {
	rows, err := experiments.ShardScaling([]int{1, 2, 4, 8}, 50, 80000)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "in-guarantee admission throughput vs shard count (open-loop overload):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %s\n", r)
	}
	return nil
}

func printStatParallel(w io.Writer, seed int64, scale float64) error {
	rows, err := experiments.ConcurrentStatistical(8, seed, scale, 0.002, 2000)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "parallel statistical admission, 8 ticket-ordered submitters on a bursty exchange-like trace:")
	for _, r := range rows {
		fmt.Fprintf(w, "  %s\n", r)
	}
	return nil
}

func printDesigns(w io.Writer) error {
	rows, err := experiments.AblationDesignSize()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  (%2d,%d,1) %-22s S(1)=%2d S(2)=%2d buckets=%3d\n", r.N, r.C, r.Name, r.S1, r.S2, r.Buckets)
	}
	return nil
}
