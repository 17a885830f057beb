package experiments

import (
	"fmt"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/fim"
	"flashqos/internal/sampling"
	"flashqos/internal/trace"
)

// Workload identifies one of the two synthesized server traces.
type Workload int

const (
	// Exchange is the Exchange-like mail-server workload (9 volumes,
	// (9,3,1) design).
	Exchange Workload = iota
	// TPCE is the TPC-E-like OLTP workload (13 volumes, (13,3,1) design).
	TPCE
)

// String implements fmt.Stringer.
func (w Workload) String() string {
	if w == Exchange {
		return "exchange"
	}
	return "tpce"
}

// makeTrace synthesizes the workload's trace.
func makeTrace(w Workload, seed int64, scale float64) (*trace.Trace, error) {
	if w == Exchange {
		return trace.ExchangeLike(seed, scale)
	}
	return trace.TPCELike(seed, scale)
}

// workloadDesign returns the design the paper pairs with the workload:
// (9,3,1) for Exchange (9 volumes), (13,3,1) for TPC-E (13 volumes).
func workloadDesign(w Workload) *design.Design {
	if w == Exchange {
		return design.Paper931()
	}
	return design.Paper1331()
}

// Fig6TraceStats reproduces Fig 6: per-interval request statistics
// (total, average and maximum reads per second) for both workloads.
func Fig6TraceStats(seed int64, scale float64) (exchange, tpce []trace.IntervalStats, err error) {
	te, err := makeTrace(Exchange, seed, scale)
	if err != nil {
		return nil, nil, err
	}
	tt, err := makeTrace(TPCE, seed, scale)
	if err != nil {
		return nil, nil, err
	}
	return te.Stats(), tt.Stats(), nil
}

// DeterministicResult pairs the QoS replay with the original-stand replay
// for one workload (Figs 8 and 9).
type DeterministicResult struct {
	Workload Workload
	QoS      *core.Report // deterministic QoS, online retrieval
	Original *core.Report // trace replayed on its stated devices
}

// DeterministicQoS reproduces Fig 8 (Exchange) or Fig 9 (TPC-E): the
// deterministic QoS with FIM mapping and online retrieval versus the
// original stand. The QoS response lines are flat at the service time;
// the original exceeds the guarantee; the delayed percentage and delay
// amounts are reported per interval.
func DeterministicQoS(w Workload, seed int64, scale float64) (*DeterministicResult, error) {
	tr, err := makeTrace(w, seed, scale)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(core.Config{Design: workloadDesign(w)})
	if err != nil {
		return nil, err
	}
	qos := sys.ReplayTrace(tr)
	orig, err := core.ReplayOriginal(tr, workloadDesign(w).N, 0)
	if err != nil {
		return nil, err
	}
	return &DeterministicResult{Workload: w, QoS: qos, Original: orig}, nil
}

// Fig8ExchangeDeterministic is Fig 8.
func Fig8ExchangeDeterministic(seed int64, scale float64) (*DeterministicResult, error) {
	return DeterministicQoS(Exchange, seed, scale)
}

// Fig9TPCEDeterministic is Fig 9.
func Fig9TPCEDeterministic(seed int64, scale float64) (*DeterministicResult, error) {
	return DeterministicQoS(TPCE, seed, scale)
}

// Fig10Row is one ε point of the statistical QoS sweep.
type Fig10Row struct {
	Epsilon     float64
	DelayedPct  float64
	AvgResponse float64 // ms
}

// Fig10Epsilons is the sweep used by the harness. The values are smaller
// than a naive reading of the paper's axis because ε competes with the
// workload's violation probability Q = Σ(1-P_k)·R_k, and with only a few
// percent of over-capacity intervals Q tops out near 0.005; the sweep
// spans the region where the admission decision actually changes.
var Fig10Epsilons = []float64{0, 0.0005, 0.001, 0.002, 0.005, 0.01}

// Fig10Statistical reproduces Fig 10: percentage of delayed requests and
// average response time versus ε for one workload, using online retrieval.
// Delayed% decreases and response time increases with ε.
func Fig10Statistical(w Workload, epsilons []float64, seed int64, scale float64) ([]Fig10Row, error) {
	tr, err := makeTrace(w, seed, scale)
	if err != nil {
		return nil, err
	}
	d := workloadDesign(w)
	// Sample the probability table once and share it across ε runs.
	var table *sampling.Table
	{
		sys, err := core.New(core.Config{Design: d})
		if err != nil {
			return nil, err
		}
		table, err = sampling.Estimate(sys.Allocator(), sampling.Options{
			MaxK: 2*d.N + sys.S(), Trials: 10000, Seed: seed + 5,
		})
		if err != nil {
			return nil, err
		}
	}
	var rows []Fig10Row
	for _, eps := range epsilons {
		sys, err := core.New(core.Config{Design: d, Epsilon: eps, Table: table})
		if err != nil {
			return nil, err
		}
		rep := sys.ReplayTrace(tr)
		rows = append(rows, Fig10Row{Epsilon: eps, DelayedPct: rep.DelayedPct, AvgResponse: rep.AvgResponse})
	}
	return rows, nil
}

// TableIVRow reports one FIM mining run (paper Table IV).
type TableIVRow struct {
	Trace    string
	Requests int
	Support  int
	AllocMB  float64
	Seconds  float64
	Pairs    int
}

// String renders the row like the paper's table.
func (r TableIVRow) String() string {
	return fmt.Sprintf("%-8s %8d reqs support=%d mem=%.1fMB time=%.3fs pairs=%d",
		r.Trace, r.Requests, r.Support, r.AllocMB, r.Seconds, r.Pairs)
}

// TableIVFIMPerformance reproduces Table IV: mining time and memory for
// the largest and smallest reporting intervals of each workload, at
// supports 1 and 3 (the paper mines at support 1 and shows support 3
// shrinking time and memory on the largest TPC-E interval).
func TableIVFIMPerformance(seed int64, scale float64) ([]TableIVRow, error) {
	var rows []TableIVRow
	for _, w := range []Workload{Exchange, TPCE} {
		tr, err := makeTrace(w, seed, scale)
		if err != nil {
			return nil, err
		}
		// Locate smallest and largest intervals by request count.
		small, large := -1, -1
		for i := 0; i < tr.NumIntervals(); i++ {
			n := len(tr.Interval(i))
			if n == 0 {
				continue
			}
			if small < 0 || n < len(tr.Interval(small)) {
				small = i
			}
			if large < 0 || n > len(tr.Interval(large)) {
				large = i
			}
		}
		for _, iv := range []int{small, large} {
			if iv < 0 {
				continue
			}
			recs := tr.Interval(iv)
			supports := []int{1}
			if iv == large {
				supports = []int{1, 3}
			}
			for _, sup := range supports {
				var pairs []fim.Pair
				st := fim.Measure(func() {
					txs := fim.TransactionsFromRecords(recs, 0.133)
					pairs = fim.MinePairs(txs, sup)
				})
				rows = append(rows, TableIVRow{
					Trace:    fmt.Sprintf("%s%d", w, iv),
					Requests: len(recs),
					Support:  sup,
					AllocMB:  st.AllocMB,
					Seconds:  st.Duration.Seconds(),
					Pairs:    len(pairs),
				})
			}
		}
	}
	return rows, nil
}

// Fig11Row is one interval's FIM benefit.
type Fig11Row struct {
	Interval int
	MatchPct float64
}

// Fig11FIMBenefit reproduces Fig 11: for each interval, the percentage of
// blocks found by mining the previous interval that are encountered again
// in the current interval. The paper reports ≈17 % on average for Exchange
// and ≈87 % for TPC-E. Mining uses support 1, like the paper's Table IV
// runs.
func Fig11FIMBenefit(w Workload, seed int64, scale float64) ([]Fig11Row, float64, error) {
	tr, err := makeTrace(w, seed, scale)
	if err != nil {
		return nil, 0, err
	}
	d := workloadDesign(w)
	sys, err := core.New(core.Config{Design: d, FIMMinSupport: 1})
	if err != nil {
		return nil, 0, err
	}
	var rows []Fig11Row
	var sum float64
	n := tr.NumIntervals()
	for i := 0; i < n; i++ {
		match := 0.0
		if i > 0 {
			sys.Remap(tr.Interval(i - 1))
			match = 100 * sys.Mapper().MappedSeenFraction(trace.DistinctBlocks(tr.Interval(i)))
		}
		rows = append(rows, Fig11Row{Interval: i, MatchPct: match})
		if i > 0 {
			sum += match
		}
	}
	mean := 0.0
	if n > 1 {
		mean = sum / float64(n-1)
	}
	return rows, mean, nil
}

// Fig12Row compares retrieval delay per interval.
type Fig12Row struct {
	Interval        int
	OnlineAvgDelay  float64 // ms, averaged over all requests
	AlignedAvgDelay float64
}

// Fig12RetrievalComparison reproduces Fig 12: the average delay introduced
// by online retrieval versus the interval-aligned design-theoretic
// retrieval on the same workload. Online is lower everywhere because it
// avoids the alignment of requests to interval starts.
func Fig12RetrievalComparison(w Workload, seed int64, scale float64) ([]Fig12Row, error) {
	tr, err := makeTrace(w, seed, scale)
	if err != nil {
		return nil, err
	}
	d := workloadDesign(w)
	on, err := core.New(core.Config{Design: d})
	if err != nil {
		return nil, err
	}
	onRep := on.ReplayTrace(tr)
	al, err := core.New(core.Config{Design: d})
	if err != nil {
		return nil, err
	}
	alRep := al.ReplayAligned(tr)
	n := len(onRep.Intervals)
	if len(alRep.Intervals) < n {
		n = len(alRep.Intervals)
	}
	rows := make([]Fig12Row, n)
	for i := 0; i < n; i++ {
		rows[i] = Fig12Row{
			Interval:        i,
			OnlineAvgDelay:  onRep.Intervals[i].AvgDelayAll,
			AlignedAvgDelay: alRep.Intervals[i].AvgDelayAll,
		}
	}
	return rows, nil
}
