package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasic(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Errorf("N = %d, want 5", s.N())
	}
	if !almostEqual(s.Mean(), 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", s.Mean())
	}
	if !almostEqual(s.Var(), 2, 1e-12) {
		t.Errorf("Var = %v, want 2 (population)", s.Var())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 || s.N() != 0 {
		t.Error("empty summary should be all zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(-7.5)
	if s.Mean() != -7.5 || s.Min() != -7.5 || s.Max() != -7.5 || s.Var() != 0 {
		t.Error("single-sample summary wrong")
	}
}

func TestSummaryNegatives(t *testing.T) {
	var s Summary
	s.Add(-3)
	s.Add(-1)
	if s.Max() != -1 {
		t.Errorf("Max = %v, want -1 (max must track negative values)", s.Max())
	}
	if s.Min() != -3 {
		t.Errorf("Min = %v, want -3", s.Min())
	}
}

func TestPercentile(t *testing.T) {
	data := []float64{5, 1, 4, 2, 3}
	if got := Percentile(data, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(data, 100); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	if got := Percentile(data, 50); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
	if got := Percentile(data, 25); got != 2 {
		t.Errorf("P25 = %v, want 2", got)
	}
	// Interpolation: P10 of [1..5] = 1.4
	if got := Percentile(data, 10); !almostEqual(got, 1.4, 1e-12) {
		t.Errorf("P10 = %v, want 1.4", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Error("empty percentile should be 0")
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Error("single-element percentile should be the element")
	}
	// Out-of-range p clamps.
	if Percentile(data, -5) != 1 || Percentile(data, 150) != 5 {
		t.Error("percentile clamping wrong")
	}
}

// Property: Welford mean/var match the two-pass formulas.
func TestQuickWelford(t *testing.T) {
	prop := func(xs []float64) bool {
		// Filter out NaN/Inf inputs that quick may generate.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var s Summary
		for _, x := range clean {
			s.Add(x)
		}
		var mean float64
		for _, x := range clean {
			mean += x
		}
		mean /= float64(len(clean))
		var v float64
		for _, x := range clean {
			v += (x - mean) * (x - mean)
		}
		v /= float64(len(clean))
		scale := math.Max(1, math.Abs(mean))
		return almostEqual(s.Mean(), mean, 1e-6*scale) && almostEqual(s.Var(), v, 1e-4*math.Max(1, v))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
	}
}
