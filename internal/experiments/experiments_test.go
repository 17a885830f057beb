package experiments

import (
	"fmt"
	"testing"
)

func TestFig2DesignValid(t *testing.T) {
	d := Fig2Design()
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if d.N != 9 || d.C != 3 || len(d.Blocks) != 12 {
		t.Errorf("unexpected design shape: %s", d)
	}
}

func TestTableIExample(t *testing.T) {
	res := TableI()
	if len(res.AdmittedApps) != 3 || len(res.RejectedApps) != 1 {
		t.Errorf("admission outcome wrong: %+v", res)
	}
	// Fig 5: all four periods retrieve in one access (T3 after remapping).
	for _, p := range res.Periods {
		if p.Accesses != 1 {
			t.Errorf("period %s used %d accesses, want 1", p.Period, p.Accesses)
		}
	}
}

func TestFig3(t *testing.T) {
	m, assign := Fig3NonConflicting()
	if m != 1 {
		t.Fatalf("Fig 3 set needs %d accesses, paper says 1", m)
	}
	if len(assign) != 9 {
		t.Fatalf("assignment covers %d blocks", len(assign))
	}
	seen := map[int]bool{}
	for _, d := range assign {
		if seen[d] {
			t.Error("device reused in a 1-access schedule")
		}
		seen[d] = true
	}
}

func TestFig4Shape(t *testing.T) {
	tab, err := Fig4Probabilities(20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Paper values with sampling tolerance.
	checks := []struct {
		k      int
		lo, hi float64
	}{
		{6, 0.98, 1.0},
		{7, 0.96, 1.0},
		{8, 0.92, 0.98},
		{9, 0.70, 0.80},
		{10, 0.999, 1.0},
	}
	for _, c := range checks {
		if got := tab.At(c.k); got < c.lo || got > c.hi {
			t.Errorf("P%d = %.3f, want in [%.2f, %.2f]", c.k, got, c.lo, c.hi)
		}
	}
	// The k=9 dip is the minimum over 1..15.
	for k := 1; k <= 15; k++ {
		if tab.At(k) < tab.At(9)-1e-9 {
			t.Errorf("P%d = %.3f below the k=9 dip %.3f", k, tab.At(k), tab.At(9))
		}
	}
}

func TestTableIIShape(t *testing.T) {
	rows, err := TableIIRetrievalComparison(3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		switch {
		case r.S <= 5:
			if r.DTRMin != 1 || r.DTRMax != 1 {
				t.Errorf("DTR(%d) range %d-%d, want exactly 1", r.S, r.DTRMin, r.DTRMax)
			}
		case r.S == 6:
			if r.DTRMax != 2 {
				t.Errorf("DTR(6) max %d, want 2", r.DTRMax)
			}
		}
		switch {
		case r.S <= 3:
			if r.OLRMin != 1 || r.OLRMax != 1 {
				t.Errorf("OLR(%d) range %d-%d, want exactly 1", r.S, r.OLRMin, r.OLRMax)
			}
		case r.S == 4 || r.S == 5:
			if r.OLRMin != 1 || r.OLRMax != 2 {
				t.Errorf("OLR(%d) range %d-%d, want \"1 or 2\"", r.S, r.OLRMin, r.OLRMax)
			}
		case r.S == 6:
			if r.OLRMax != 2 {
				t.Errorf("OLR(6) max %d, want 2", r.OLRMax)
			}
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	rows, err := TableIIIAllocationComparison(5000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9 (3 cases x 3 schemes)", len(rows))
	}
	byCase := map[TableIIICase]map[string]TableIIIRow{}
	for _, r := range rows {
		if byCase[r.Case] == nil {
			byCase[r.Case] = map[string]TableIIIRow{}
		}
		byCase[r.Case][r.Scheme] = r
	}
	for c, schemes := range byCase {
		var dt, mir, ch TableIIIRow
		for name, r := range schemes {
			switch {
			case name == "RAID-1 mirrored":
				mir = r
			case name == "RAID-1 chained":
				ch = r
			default:
				dt = r
			}
		}
		// The headline claim: only design-theoretic meets the guarantee.
		if !dt.Met {
			t.Errorf("case %+v: design-theoretic missed its guarantee (max %.3f)", c, dt.Max)
		}
		if dt.Max > c.IntervalMS+1e-9 {
			t.Errorf("case %+v: DT max %.3f exceeds interval", c, dt.Max)
		}
		// Baselines violate the guarantee at every request size (Table III).
		if mir.Max <= c.IntervalMS {
			t.Errorf("case %+v: mirrored unexpectedly met the guarantee (max %.3f)", c, mir.Max)
		}
		if ch.Max <= c.IntervalMS {
			t.Errorf("case %+v: chained unexpectedly met the guarantee (max %.3f)", c, ch.Max)
		}
		// Mirrored degrades dramatically at the largest request size: its
		// 3-device groups run at utilization ~0.997, so queueing explodes
		// relative to both the guarantee and the chained layout. (The
		// paper's absolute blowup is larger — DiskSim's per-request
		// overheads tip the borderline queue into instability — but the
		// verdict is the same; see EXPERIMENTS.md.)
		if c.RequestSize == 27 && mir.Max < 4*c.IntervalMS {
			t.Errorf("mirrored at k=27 should blow up; max only %.3f", mir.Max)
		}
		if c.RequestSize == 27 && mir.Max < 2*ch.Max {
			t.Errorf("mirrored (%.3f) should be far above chained (%.3f) at k=27", mir.Max, ch.Max)
		}
		// Ordering: DT <= chained <= mirrored on max response for k=27.
		if c.RequestSize == 27 && !(dt.Max < ch.Max && ch.Max < mir.Max) {
			t.Errorf("k=27 ordering wrong: dt=%.3f ch=%.3f mir=%.3f", dt.Max, ch.Max, mir.Max)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	ex, tp, err := Fig6TraceStats(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) < 90 || len(tp) != 6 {
		t.Fatalf("interval counts: exchange %d, tpce %d", len(ex), len(tp))
	}
	for _, s := range append(ex, tp...) {
		if s.Total > 0 && s.MaxPerSec < s.AvgPerSec-1e-9 {
			t.Errorf("interval %d: max/s %.1f below avg/s %.1f", s.Interval, s.MaxPerSec, s.AvgPerSec)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := DeterministicQoS(Exchange, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// QoS flat at service time; original exceeds it.
	if res.QoS.MaxResponse > 0.14 {
		t.Errorf("QoS max response %.4f should be ~0.1325", res.QoS.MaxResponse)
	}
	if res.Original.MaxResponse <= res.QoS.MaxResponse {
		t.Error("original stand should exceed the QoS guarantee")
	}
	if res.Original.AvgResponse < res.QoS.AvgResponse-1e-9 {
		t.Error("original average should not beat the QoS average")
	}
	// Paper: 3-13% delayed, ~7% average. Accept a generous band.
	if res.QoS.DelayedPct < 0.5 || res.QoS.DelayedPct > 25 {
		t.Errorf("Exchange delayed%% = %.2f, want a few percent", res.QoS.DelayedPct)
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := DeterministicQoS(TPCE, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.QoS.MaxResponse > 0.14 {
		t.Errorf("QoS max response %.4f should be ~0.1325", res.QoS.MaxResponse)
	}
	if res.Original.MaxResponse <= 0.14 {
		t.Error("original stand should violate the guarantee")
	}
	if res.QoS.DelayedPct <= 0 || res.QoS.DelayedPct > 30 {
		t.Errorf("TPC-E delayed%% = %.2f", res.QoS.DelayedPct)
	}
}

func TestFig10Shape(t *testing.T) {
	for _, w := range []Workload{Exchange, TPCE} {
		rows, err := Fig10Statistical(w, []float64{0, 0.001, 0.01}, 5, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("got %d rows", len(rows))
		}
		// Monotone trends: delayed% non-increasing, response non-decreasing.
		if rows[2].DelayedPct > rows[0].DelayedPct {
			t.Errorf("%v: delayed%% should fall with epsilon: %.2f -> %.2f", w, rows[0].DelayedPct, rows[2].DelayedPct)
		}
		if rows[2].AvgResponse < rows[0].AvgResponse-1e-9 {
			t.Errorf("%v: response should rise with epsilon: %.4f -> %.4f", w, rows[0].AvgResponse, rows[2].AvgResponse)
		}
		// The deterministic run delays some requests; a permissive ε must
		// strictly reduce them (the tradeoff is real, not flat).
		if rows[0].DelayedPct > 0.5 && rows[2].DelayedPct >= rows[0].DelayedPct-0.1 {
			t.Errorf("%v: epsilon had no effect: %.2f%% -> %.2f%%", w, rows[0].DelayedPct, rows[2].DelayedPct)
		}
	}
}

func TestTableIVShape(t *testing.T) {
	rows, err := TableIVFIMPerformance(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Support 3 on the same interval mines fewer (or equal) pairs than
	// support 1, in no more time order-of-magnitude-wise (paper's point is
	// that raising support cuts cost).
	byTrace := map[string]map[int]TableIVRow{}
	for _, r := range rows {
		if byTrace[r.Trace] == nil {
			byTrace[r.Trace] = map[int]TableIVRow{}
		}
		byTrace[r.Trace][r.Support] = r
		if r.Seconds < 0 || r.AllocMB < 0 {
			t.Errorf("bad measurement: %+v", r)
		}
	}
	for name, m := range byTrace {
		if r1, ok := m[1]; ok {
			if r3, ok := m[3]; ok {
				if r3.Pairs > r1.Pairs {
					t.Errorf("%s: support 3 mined more pairs (%d) than support 1 (%d)", name, r3.Pairs, r1.Pairs)
				}
			}
		}
	}
}

func TestFig11Shape(t *testing.T) {
	_, exMean, err := Fig11FIMBenefit(Exchange, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rows, tpMean, err := Fig11FIMBenefit(TPCE, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MatchPct != 0 {
		t.Error("first interval has no history; match must be 0")
	}
	// Paper: Exchange ~17%, TPC-E ~87%. Shape: TPC-E far above Exchange.
	if tpMean < exMean+20 {
		t.Errorf("TPC-E match %.1f%% should be far above Exchange %.1f%%", tpMean, exMean)
	}
	if exMean < 2 || exMean > 50 {
		t.Errorf("Exchange mean match %.1f%%, want low-moderate (~17%%)", exMean)
	}
	if tpMean < 55 {
		t.Errorf("TPC-E mean match %.1f%%, want high (~87%%)", tpMean)
	}
}

func TestFig12Shape(t *testing.T) {
	for _, w := range []Workload{Exchange, TPCE} {
		rows, err := Fig12RetrievalComparison(w, 5, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		var onSum, alSum float64
		n := 0
		for _, r := range rows {
			onSum += r.OnlineAvgDelay
			alSum += r.AlignedAvgDelay
			n++
		}
		if n == 0 {
			t.Fatal("no intervals")
		}
		if alSum/float64(n) <= onSum/float64(n) {
			t.Errorf("%v: aligned delay %.4f should exceed online %.4f", w, alSum/float64(n), onSum/float64(n))
		}
	}
}

func TestGuaranteeComparison(t *testing.T) {
	rows := GuaranteeComparison(15)
	// §II-B3: b=3 → DT 1 vs orth 2; b=8 → 2 vs 3; b=15 → 3 vs 4.
	expect := map[int][2]int{3: {1, 2}, 8: {2, 3}, 15: {3, 4}}
	for _, r := range rows {
		if want, ok := expect[r.Buckets]; ok {
			if r.DesignAccesses != want[0] || r.OrthAccesses != want[1] {
				t.Errorf("b=%d: got DT=%d orth=%d, want %v", r.Buckets, r.DesignAccesses, r.OrthAccesses, want)
			}
		}
		if r.DesignAccesses > r.OrthAccesses {
			t.Errorf("b=%d: design-theoretic (%d) worse than orthogonal (%d)", r.Buckets, r.DesignAccesses, r.OrthAccesses)
		}
	}
}

func TestAblationSchemes(t *testing.T) {
	rows, err := AblationSchemes(5, 300, 17)
	if err != nil {
		t.Fatal(err)
	}
	costs := map[QueryKind]map[string]SchemeCostRow{}
	for _, r := range rows {
		if costs[r.Query] == nil {
			costs[r.Query] = map[string]SchemeCostRow{}
		}
		costs[r.Query][r.Scheme] = r
	}
	arb := costs[Arbitrary]
	dt := arb["design-theoretic (9,3,1)"]
	if dt.MaxCost != 1 {
		t.Errorf("DT worst arbitrary cost %d, want 1 (5 <= S)", dt.MaxCost)
	}
	if mir := arb["RAID-1 mirrored"]; mir.MaxCost <= dt.MaxCost {
		t.Errorf("mirrored worst cost %d should exceed DT %d", mir.MaxCost, dt.MaxCost)
	}
	// Every scheme achieves >= 1 average cost.
	for _, r := range rows {
		if r.AvgCost < 1 {
			t.Errorf("%s %v: avg cost %.2f < 1", r.Scheme, r.Query, r.AvgCost)
		}
	}
}

func TestAblationFIM(t *testing.T) {
	res, err := AblationFIM(TPCE, 9, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithFIM.Requests != res.ModuloOnly.Requests {
		t.Fatal("both runs must see the same workload")
	}
	// FIM separates co-requested hot blocks: no more delayed than modulo.
	if res.WithFIM.DelayedPct > res.ModuloOnly.DelayedPct+1 {
		t.Errorf("FIM delayed%% %.2f worse than modulo %.2f", res.WithFIM.DelayedPct, res.ModuloOnly.DelayedPct)
	}
}

func TestAblationMaxflow(t *testing.T) {
	rows, err := AblationMaxflow(12, 500, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GreedyAvg < r.OptimalAvg-1e-9 {
			t.Errorf("size %d: greedy avg %.3f below optimal %.3f (impossible)", r.Size, r.GreedyAvg, r.OptimalAvg)
		}
		if r.Size <= 3 && r.FallbackPct > 1 {
			t.Errorf("size %d: fallback %.1f%%, want ~0 for tiny requests", r.Size, r.FallbackPct)
		}
	}
}

func TestAblationDesignSize(t *testing.T) {
	rows, err := AblationDesignSize()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		wantS1 := (r.C-1)*1 + r.C
		if r.S1 != wantS1 {
			t.Errorf("(%d,%d): S1 = %d, want %d", r.N, r.C, r.S1, wantS1)
		}
		if r.Buckets != r.N*(r.N-1)/(r.C-1) {
			t.Errorf("(%d,%d): buckets = %d", r.N, r.C, r.Buckets)
		}
	}
}

func TestAblationGCInterference(t *testing.T) {
	rows, err := AblationGCInterference([]float64{0, 0.2, 0.5}, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	pure := rows[0]
	// Pure reads: fixed latency, no GC.
	if pure.GCRuns != 0 {
		t.Errorf("pure-read workload ran GC %d times", pure.GCRuns)
	}
	if pure.ReadMaxMS > pure.ReadAvgMS+1e-9 {
		t.Errorf("pure-read latency not flat: avg %.4f max %.4f", pure.ReadAvgMS, pure.ReadMaxMS)
	}
	// Write-heavy workloads trigger GC and inflate the read tail.
	if rows[2].GCRuns == 0 {
		t.Error("write-heavy workload should trigger GC")
	}
	if rows[2].ReadMaxMS <= pure.ReadMaxMS {
		t.Errorf("GC should inflate the read tail: %.4f vs %.4f", rows[2].ReadMaxMS, pure.ReadMaxMS)
	}
	if rows[2].ReadP99MS <= pure.ReadP99MS {
		t.Errorf("p99 should degrade under writes: %.4f vs pure %.4f", rows[2].ReadP99MS, pure.ReadP99MS)
	}
}

func TestAblationHeterogeneous(t *testing.T) {
	rows, err := AblationHeterogeneous(2.0, 200, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// With no slow modules the two schedulers agree.
	if rows[0].Improvement < 0.999 || rows[0].Improvement > 1.001 {
		t.Errorf("homogeneous improvement %.3f, want 1.0", rows[0].Improvement)
	}
	// With slow modules the makespan-aware schedule is never worse and
	// strictly better on average.
	for _, r := range rows[1:] {
		if r.MakespanMS > r.AccessesMS+1e-9 {
			t.Errorf("slow=%d: aware schedule worse (%.4f > %.4f)", r.SlowModules, r.MakespanMS, r.AccessesMS)
		}
	}
	if rows[2].Improvement <= 1.01 {
		t.Errorf("2 slow modules: expected clear improvement, got %.3f", rows[2].Improvement)
	}
}

func TestAblationFailure(t *testing.T) {
	rows, err := AblationFailure(2, 500, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// c = 3 replicas: up to 2 failures never lose a bucket.
		if r.Available != 100 {
			t.Errorf("failed=%d: availability %.1f%%, want 100%%", r.Failed, r.Available)
		}
	}
	// No failures: the guarantee holds exactly.
	if rows[0].MaxAccesses != 1 || rows[0].GuaranteeOK != 100 {
		t.Errorf("failed=0: max=%d ok=%.1f%%, want 1/100%%", rows[0].MaxAccesses, rows[0].GuaranteeOK)
	}
	// Degradation is graceful and monotone.
	if rows[1].AvgAccesses < rows[0].AvgAccesses || rows[2].AvgAccesses < rows[1].AvgAccesses {
		t.Error("average cost should not improve as devices fail")
	}
	if rows[2].MaxAccesses > 3 {
		t.Errorf("2 failures: max accesses %d, expected graceful (<= 3)", rows[2].MaxAccesses)
	}
	// Failing c devices is rejected (could lose data).
	if _, err := AblationFailure(3, 10, 1); err == nil {
		t.Error("failing c devices should be rejected")
	}
}

func TestAblationArrayGC(t *testing.T) {
	rows, err := AblationArrayGC([]float64{0, 0.3}, 3000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	pure, mixed := rows[0], rows[1]
	// Read-only: the plan and the realization agree; every read within the
	// guarantee; no GC.
	if pure.GuaranteePct != 100 {
		t.Errorf("read-only guarantee held %.1f%%, want 100%%", pure.GuaranteePct)
	}
	if pure.RealizedMaxMS > 0.133+1e-9 {
		t.Errorf("read-only realized max %.4f exceeds guarantee", pure.RealizedMaxMS)
	}
	// Mixed: GC runs and some reads blow the guarantee end to end.
	if mixed.GCRuns == 0 {
		t.Error("mixed workload should trigger GC")
	}
	if mixed.GuaranteePct >= 100 {
		t.Error("GC interference should break some realized guarantees")
	}
	if mixed.RealizedP99MS <= pure.RealizedP99MS {
		t.Errorf("mixed p99 %.4f should exceed read-only %.4f", mixed.RealizedP99MS, pure.RealizedP99MS)
	}
	// The controller's plan stays flat regardless — the leak is physical.
	if mixed.PlannedMaxMS > 0.133+1e-9 {
		t.Errorf("controller plan %.4f should stay within the guarantee", mixed.PlannedMaxMS)
	}
}

func TestAblationFairness(t *testing.T) {
	res, err := AblationFairness(4, 2000, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 4 {
		t.Fatalf("got %d tenants", len(res.Tenants))
	}
	anyDelayed := false
	for _, tn := range res.Tenants {
		if tn.Requests != 2000 {
			t.Errorf("tenant %d: %d requests", tn.Tenant, tn.Requests)
		}
		if tn.DelayedPct > 0 {
			anyDelayed = true
		}
	}
	if !anyDelayed {
		t.Error("expected contention between tenants")
	}
	// FCFS across identical tenants should be near-fair.
	if res.JainIndex < 0.9 {
		t.Errorf("Jain index %.3f, want >= 0.9 for identical tenants", res.JainIndex)
	}
}

func TestAblationMClock(t *testing.T) {
	rows, err := AblationMClock(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	blind, gated := rows[0], rows[1]
	// Both rows keep post-admission response flat at one service time —
	// the gate shapes who is admitted, never what admission guarantees.
	if !blind.VictimFlatNs {
		t.Error("tenant-blind QoS response should stay flat at the service time")
	}
	if !gated.VictimFlatNs {
		t.Error("gated QoS response should stay flat at the service time")
	}
	// Tenant-blind FCFS makes the victim wait out the aggressor's burst
	// backlog; the gate clips the burst at the aggressor's share so the
	// victim's arrival-to-completion latency collapses to near one
	// service time.
	if blind.VictimMaxMS < 1 {
		t.Errorf("blind victim max %.4f: the burst should visibly delay the victim", blind.VictimMaxMS)
	}
	if gated.VictimMaxMS > 0.5 {
		t.Errorf("gated victim max %.4f, want near one service time", gated.VictimMaxMS)
	}
	if gated.VictimAvgMS >= blind.VictimAvgMS {
		t.Errorf("gate did not help: gated avg %.4f >= blind avg %.4f",
			gated.VictimAvgMS, blind.VictimAvgMS)
	}
	if blind.AggressorShaped != 0 {
		t.Errorf("blind row shaped %d aggressor requests without a gate", blind.AggressorShaped)
	}
	if gated.AggressorShaped == 0 {
		t.Error("gated row shaped no aggressor requests")
	}
	// Sanity on the latency summaries themselves.
	for _, r := range rows {
		if r.VictimAvgMS < 0.132 {
			t.Errorf("%s: victim avg %.4f below service time", r.System, r.VictimAvgMS)
		}
		if r.VictimMaxMS > 50 {
			t.Errorf("%s: victim max %.4f implausible", r.System, r.VictimMaxMS)
		}
		if r.VictimP99MS > r.VictimMaxMS+1e-9 {
			t.Errorf("%s: p99 above max", r.System)
		}
	}
}

func TestMultiSeed(t *testing.T) {
	rows, err := MultiSeed(Seeds(1, 4), func(seed int64) ([]Metric, error) {
		return []Metric{
			{"constant", 5},
			{"seeded", float64(seed % 10)},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Name != "constant" || rows[0].Mean != 5 || rows[0].Std != 0 || rows[0].Seeds != 4 {
		t.Errorf("constant row wrong: %+v", rows[0])
	}
	if rows[1].Std == 0 {
		t.Error("seeded metric should vary")
	}
	if _, err := MultiSeed(nil, nil); err == nil {
		t.Error("no seeds should fail")
	}
	if _, err := MultiSeed([]int64{1}, func(int64) ([]Metric, error) {
		return nil, fmt.Errorf("boom")
	}); err == nil {
		t.Error("run error should propagate")
	}
}

func TestHeadlineMetricsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := MultiSeed(Seeds(40, 3), HeadlineMetrics(0.02))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ConfidenceRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Seeds != 3 {
			t.Errorf("%s: %d seeds", r.Name, r.Seeds)
		}
	}
	// The paper's headline contrasts must hold in expectation, not just for
	// one lucky seed.
	ex := byName["exchange delayed %"]
	tp := byName["tpce delayed %"]
	if ex.Mean <= tp.Mean {
		t.Errorf("Exchange delayed %.2f%% should exceed TPC-E %.2f%% on average", ex.Mean, tp.Mean)
	}
	exM := byName["exchange FIM match %"]
	tpM := byName["tpce FIM match %"]
	if tpM.Mean < exM.Mean+20 {
		t.Errorf("FIM match contrast lost across seeds: exchange %.1f vs tpce %.1f", exM.Mean, tpM.Mean)
	}
}

func TestAblationSpatialQueries(t *testing.T) {
	rows, err := AblationSpatialQueries(5, 400, 29)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("got %d rows, want 15 (5 schemes x 3 shapes)", len(rows))
	}
	get := func(scheme string, q SpatialQuery) SpatialRow {
		for _, r := range rows {
			if r.Scheme == scheme && r.Query == q {
				return r
			}
		}
		t.Fatalf("missing row %s/%v", scheme, q)
		return SpatialRow{}
	}
	dtName := "design-theoretic (9,3,1)"
	// Design-theoretic: worst case 1 at the guarantee size on every shape.
	for _, q := range []SpatialQuery{SpatialArbitrary, SpatialRange, SpatialConnected} {
		if r := get(dtName, q); r.MaxCost != 1 {
			t.Errorf("DT %v: max cost %d, want 1", q, r.MaxCost)
		}
	}
	// Dependent periodic spreads better than mirrored groups on every shape
	// (its strength on consecutive bucket runs is covered by the 1D range
	// case in TestAblationSchemes; 2D rectangles alias across grid rows).
	per := "dependent periodic (shift 3)"
	for _, q := range []SpatialQuery{SpatialArbitrary, SpatialRange, SpatialConnected} {
		if get(per, q).AvgCost > get("RAID-1 mirrored", q).AvgCost+1e-9 {
			t.Errorf("%v: periodic (%f) should not lose to mirrored (%f)",
				q, get(per, q).AvgCost, get("RAID-1 mirrored", q).AvgCost)
		}
	}
	// Mirrored is the weakest scheme on arbitrary queries.
	mir := get("RAID-1 mirrored", SpatialArbitrary)
	if mir.AvgCost < get(dtName, SpatialArbitrary).AvgCost {
		t.Error("mirrored should not beat design-theoretic on arbitrary queries")
	}
}

func TestPeriodicShinesOnConsecutiveRuns(t *testing.T) {
	// §II-B2: dependent periodic "performs well for the queries including
	// buckets near to each other such as range queries" — with 1D runs of
	// consecutive bucket numbers, any 5-run costs exactly 1 access.
	rows, err := AblationSchemes(5, 500, 37)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scheme == "dependent periodic (shift 3)" && r.Query == Range {
			if r.MaxCost != 1 {
				t.Errorf("periodic 1D range max cost %d, want 1", r.MaxCost)
			}
		}
	}
}

func TestAblationClosedLoop(t *testing.T) {
	// Table I sizes (2,2,1) fill S=5; a fourth app of size 2 is rejected.
	res, err := AblationClosedLoop(2000, []int{2, 2, 1, 2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectedN != 1 {
		t.Errorf("rejected %d applications, want 1", res.RejectedN)
	}
	if len(res.Admitted) != 3 {
		t.Fatalf("admitted %d applications", len(res.Admitted))
	}
	for _, a := range res.Admitted {
		if a.Requests != a.Size*res.Periods {
			t.Errorf("app %s issued %d requests, want %d", a.App, a.Requests, a.Size*res.Periods)
		}
		// Sustained guarantee: every request of every admitted app is
		// served in one access, no delays, over thousands of periods.
		if a.MaxResponse > 0.132507+1e-9 {
			t.Errorf("app %s max response %.6f exceeds guarantee", a.App, a.MaxResponse)
		}
		if a.DelayedPct != 0 {
			t.Errorf("app %s delayed %.2f%%, want 0 within reservations", a.App, a.DelayedPct)
		}
	}
}

func TestSweepDesigns(t *testing.T) {
	rows, err := SweepDesigns(7, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	get := func(n, c, m int) SweepRow {
		for _, r := range rows {
			if r.N == n && r.C == c && r.M == m {
				return r
			}
		}
		t.Fatalf("missing row (%d,%d,%d)", n, c, m)
		return SweepRow{}
	}
	// S math per configuration.
	if get(9, 3, 1).S != 5 || get(9, 3, 2).S != 14 || get(13, 4, 1).S != 7 {
		t.Error("S limits wrong in sweep")
	}
	// Tunability: more devices with the same workload reduce delays.
	if get(19, 3, 1).DelayedPct > get(7, 3, 1).DelayedPct {
		t.Errorf("19 devices delayed %.2f%% should not exceed 7 devices %.2f%%",
			get(19, 3, 1).DelayedPct, get(7, 3, 1).DelayedPct)
	}
	// And reduce per-device utilization (same work spread wider).
	if get(19, 3, 1).Utilization > get(9, 3, 1).Utilization {
		t.Errorf("19-device utilization %.4f should be below 9-device %.4f",
			get(19, 3, 1).Utilization, get(9, 3, 1).Utilization)
	}
	// Raising M (longer interval, larger S) also reduces capacity delays.
	if get(9, 3, 2).DelayedPct > get(9, 3, 1).DelayedPct+1 {
		t.Errorf("M=2 delayed %.2f%% should not exceed M=1 %.2f%% by much",
			get(9, 3, 2).DelayedPct, get(9, 3, 1).DelayedPct)
	}
	for _, r := range rows {
		if r.Utilization <= 0 || r.Utilization >= 1 {
			t.Errorf("(%d,%d,M=%d): utilization %.4f out of range", r.N, r.C, r.M, r.Utilization)
		}
	}
}

func TestFig7Layouts(t *testing.T) {
	layouts, err := Fig7Layouts(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(layouts) != 3 {
		t.Fatalf("got %d layouts", len(layouts))
	}
	byName := map[string]Fig7Layout{}
	for _, l := range layouts {
		byName[l.Scheme] = l
		if len(l.Buckets) != 12 || len(l.Devices) != 9 {
			t.Errorf("%s: wrong table sizes", l.Scheme)
		}
		// Consistency: bucket view and device view agree.
		for b, devs := range l.Buckets {
			for _, d := range devs {
				found := false
				for _, bb := range l.Devices[d] {
					if bb == b {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: bucket %d on device %d missing from device view", l.Scheme, b, d)
				}
			}
		}
	}
	// Fig 7's printed patterns.
	dt := byName["design-theoretic (9,3,1)"]
	if got := dt.Buckets[0]; got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("DT b0 = %v, want [0 1 2]", got)
	}
	mir := byName["RAID-1 mirrored"]
	// b0 on group {0,1,2}, b1 on {3,4,5}, b2 on {6,7,8}.
	for b, wantBase := range map[int]int{0: 0, 1: 3, 2: 6} {
		for _, d := range mir.Buckets[b] {
			if d/3 != wantBase/3 {
				t.Errorf("mirrored b%d on device %d outside group %d", b, d, wantBase/3)
			}
		}
	}
	ch := byName["RAID-1 chained"]
	for j, d := range ch.Buckets[1] {
		if d != (1+j)%9 {
			t.Errorf("chained b1 copy %d on %d, want %d", j, d, (1+j)%9)
		}
	}
	if _, err := Fig7Layouts(0); err == nil {
		t.Error("buckets=0 should fail")
	}
}
