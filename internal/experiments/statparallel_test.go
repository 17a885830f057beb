package experiments

import (
	"slices"
	"testing"
)

// TestConcurrentStatistical runs the parallel statistical-admission
// experiment on a CI-sized bursty trace with 8 ticket-ordered submitters
// and asserts the §III-B tradeoff engages — the statistical mode
// over-admits relative to the deterministic baseline (violated windows
// exist at this ε) while the deterministic baseline stays violation-free —
// and that both rows equal a one-submitter run's exactly: the same
// violated windows, admissions and final Q on any core count. Wall-clock
// throughput is reported, not asserted (the 2× criterion is gated by
// BenchmarkConcurrentStatistical); here only a generous sanity floor
// guards against reintroducing a global serialization that would crater
// the parallel path.
func TestConcurrentStatistical(t *testing.T) {
	// Same ε regime as TestStatisticalViolationBound (serial) and
	// TestStatisticalViolationBoundConcurrent (core): a bursty
	// exchange-like trace whose queues drain between bursts — the regime
	// the interval-size estimator prices. A different seed keeps this an
	// independent artifact rather than a copy of the core tests.
	const eps = 0.002
	rows, err := ConcurrentStatistical(8, 17, 0.05, eps, 2000)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ConcurrentStatistical(1, 17, 0.05, eps, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(serial) != 2 {
		t.Fatalf("got %d and %d rows, want 2", len(rows), len(serial))
	}
	det, stat := rows[0], rows[1]

	if det.ViolWindows != 0 {
		t.Errorf("deterministic baseline violated %d windows, want 0 (guaranteed path)", det.ViolWindows)
	}
	if det.FinalQ != 0 {
		t.Errorf("deterministic Q = %g, want 0", det.FinalQ)
	}
	if stat.AdmittedInHorizon < det.AdmittedInHorizon {
		t.Errorf("statistical admitted %d < deterministic %d: over-admission should never lose ground",
			stat.AdmittedInHorizon, det.AdmittedInHorizon)
	}
	if stat.ViolWindows == 0 {
		t.Error("no violated windows at this epsilon: tradeoff never engaged")
	}
	if stat.FinalQ >= eps {
		t.Errorf("final Q = %.5f, must stay below epsilon %.3f", stat.FinalQ, eps)
	}
	for i, r := range rows {
		s := serial[i]
		if !slices.Equal(r.Violated, s.Violated) || r.AdmittedInHorizon != s.AdmittedInHorizon ||
			r.Windows != s.Windows || r.FinalQ != s.FinalQ {
			t.Errorf("%s: 8 submitters (violated %v, admitted %d, windows %d, Q %g) != 1 submitter (violated %v, admitted %d, windows %d, Q %g)",
				r.Mode, r.Violated, r.AdmittedInHorizon, r.Windows, r.FinalQ,
				s.Violated, s.AdmittedInHorizon, s.Windows, s.FinalQ)
		}
	}
	if stat.WallOpsPerSec <= 0 || det.WallOpsPerSec <= 0 {
		t.Fatal("wall throughput not measured")
	}
	if ratio := stat.WallOpsPerSec / det.WallOpsPerSec; ratio < 0.2 {
		t.Errorf("statistical wall throughput %.0f ops/s is %.2fx the deterministic %.0f ops/s; a regression below 0.2x suggests admission re-serialized",
			stat.WallOpsPerSec, ratio, det.WallOpsPerSec)
	}
	for _, r := range rows {
		if r.Goroutines != 8 || r.Offered == 0 || r.Offered != det.Offered || r.Windows < 100 {
			t.Errorf("row misconfigured: %+v", r)
		}
	}
}

func TestConcurrentStatisticalValidation(t *testing.T) {
	for _, c := range []struct {
		g      int
		seed   int64
		scale  float64
		eps    float64
		trials int
	}{
		{0, 17, 0.05, 0.01, 100},
		{8, 17, 0, 0.01, 100},
		{8, 17, -1, 0.01, 100},
		{8, 17, 0.05, 0, 100},
		{8, 17, 0.05, 1, 100},
		{8, 17, 0.05, 0.01, 0},
	} {
		if _, err := ConcurrentStatistical(c.g, c.seed, c.scale, c.eps, c.trials); err == nil {
			t.Errorf("ConcurrentStatistical(%+v) should error", c)
		}
	}
}
