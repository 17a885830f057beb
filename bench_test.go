// Package-level benchmark harness: one benchmark per paper table/figure
// (see DESIGN.md §4). Each benchmark runs the corresponding experiment at
// a reduced-but-representative size and reports domain metrics via
// b.ReportMetric alongside the usual ns/op, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. The experiments package's tests assert
// the shapes; these benchmarks measure the cost of producing them.
package main

import (
	"testing"

	"flashqos/internal/experiments"
)

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.TableI()
		if len(res.Periods) != 4 {
			b.Fatal("worked example broken")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if m, _ := experiments.Fig3NonConflicting(); m != 1 {
			b.Fatal("Fig 3 should need exactly 1 access")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	var p9 float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig4Probabilities(4000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		p9 = tab.At(9)
	}
	b.ReportMetric(p9, "P9")
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIIRetrievalComparison(500, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("want 6 rows")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	var dtMax float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIIIAllocationComparison(3000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		dtMax = rows[len(rows)-1].Max
	}
	b.ReportMetric(dtMax, "dt-max-ms")
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ex, tp, err := experiments.Fig6TraceStats(int64(i+1), 0.02)
		if err != nil {
			b.Fatal(err)
		}
		if len(ex) == 0 || len(tp) == 0 {
			b.Fatal("empty stats")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	var delayed float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DeterministicQoS(experiments.Exchange, int64(i+1), 0.02)
		if err != nil {
			b.Fatal(err)
		}
		delayed = res.QoS.DelayedPct
	}
	b.ReportMetric(delayed, "delayed%")
}

func BenchmarkFig9(b *testing.B) {
	var delayed float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DeterministicQoS(experiments.TPCE, int64(i+1), 0.02)
		if err != nil {
			b.Fatal(err)
		}
		delayed = res.QoS.DelayedPct
	}
	b.ReportMetric(delayed, "delayed%")
}

func BenchmarkFig10(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10Statistical(experiments.Exchange, []float64{0, 0.2}, int64(i+1), 0.02)
		if err != nil {
			b.Fatal(err)
		}
		spread = rows[0].DelayedPct - rows[1].DelayedPct
	}
	b.ReportMetric(spread, "delayed%-drop")
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIVFIMPerformance(int64(i+1), 0.02)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) < 4 {
			b.Fatal("too few rows")
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	var tpMean float64
	for i := 0; i < b.N; i++ {
		_, mean, err := experiments.Fig11FIMBenefit(experiments.TPCE, int64(i+1), 0.02)
		if err != nil {
			b.Fatal(err)
		}
		tpMean = mean
	}
	b.ReportMetric(tpMean, "tpce-match%")
}

func BenchmarkFig12(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12RetrievalComparison(experiments.TPCE, int64(i+1), 0.02)
		if err != nil {
			b.Fatal(err)
		}
		var on, al float64
		for _, r := range rows {
			on += r.OnlineAvgDelay
			al += r.AlignedAvgDelay
		}
		gap = (al - on) / float64(len(rows))
	}
	b.ReportMetric(gap, "aligned-minus-online-ms")
}

func BenchmarkAblationSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSchemes(5, 200, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMaxflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMaxflow(10, 200, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFIM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFIM(experiments.TPCE, int64(i+1), 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDesignSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDesignSize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Layouts(12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGCInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGCInterference([]float64{0, 0.3}, 2000, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHeterogeneous(2.0, 100, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFailure(2, 200, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationArrayGC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationArrayGC([]float64{0.3}, 2000, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFairness(b *testing.B) {
	var jain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationFairness(4, 1000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		jain = res.JainIndex
	}
	b.ReportMetric(jain, "jain")
}

func BenchmarkAblationMClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMClock(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSpatial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSpatialQueries(5, 200, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationClosedLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationClosedLoop(500, []int{2, 2, 1}, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepDesigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepDesigns(int64(i+1), 0.01); err != nil {
			b.Fatal(err)
		}
	}
}
