package sampling

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"flashqos/internal/decluster"
	"flashqos/internal/design"
)

func table931(t testing.TB, trials int) *Table {
	t.Helper()
	dt, err := decluster.NewDesignTheoretic(design.Paper931())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Estimate(dt, Options{MaxK: 12, Trials: trials, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestFig4Probabilities checks the paper's Fig 4 numbers for the (9,3,1)
// design: P6 ≈ 0.99, P7 ≈ 0.98, P8 ≈ 0.95, P9 ≈ 0.75, P10 = 1 (since
// ⌈10/9⌉ = 2 accesses is easy), and P_k ≈ 1 for k ≤ 5 (the deterministic
// guarantee; with-replacement collisions are negligible).
func TestFig4Probabilities(t *testing.T) {
	tab := table931(t, 20000)
	approx := func(k int, want, tol float64) {
		t.Helper()
		if got := tab.At(k); got < want-tol || got > want+tol {
			t.Errorf("P%d = %.3f, paper says %.2f (tol %.2f)", k, got, want, tol)
		}
	}
	for k := 1; k <= 4; k++ {
		if tab.At(k) < 0.999 {
			t.Errorf("P%d = %.4f, want ~1 (deterministic guarantee)", k, tab.At(k))
		}
	}
	// At k=5, with-replacement sampling can draw 4+ requests from one
	// rotation class (3 devices) with probability ~0.26%, so P5 is just
	// under 1 — the guarantee itself is over distinct buckets.
	if tab.At(5) < 0.99 {
		t.Errorf("P5 = %.4f, want >= 0.99", tab.At(5))
	}
	approx(6, 0.99, 0.01)
	approx(7, 0.98, 0.015)
	approx(8, 0.95, 0.02)
	approx(9, 0.75, 0.04)
	if tab.At(10) < 0.9999 {
		t.Errorf("P10 = %.4f, want 1 (optimal becomes 2 accesses)", tab.At(10))
	}
}

func TestTableAt(t *testing.T) {
	tab := &Table{N: 9, P: []float64{1, 0.9, 0.8}}
	if tab.At(0) != 1 || tab.At(-3) != 1 {
		t.Error("At(k<=0) should be 1")
	}
	if tab.At(1) != 0.9 || tab.At(2) != 0.8 {
		t.Error("At lookup wrong")
	}
	if tab.At(10) != 0.8 {
		t.Error("At beyond table should extrapolate last value")
	}
	if tab.MaxK() != 2 {
		t.Errorf("MaxK = %d, want 2", tab.MaxK())
	}
}

func TestEstimateValidation(t *testing.T) {
	dt, _ := decluster.NewDesignTheoretic(design.Paper931())
	if _, err := Estimate(dt, Options{MaxK: 0}); err == nil {
		t.Error("MaxK=0 should fail")
	}
}

func TestEstimateDeterministicSeed(t *testing.T) {
	dt, _ := decluster.NewDesignTheoretic(design.Paper931())
	t1, _ := Estimate(dt, Options{MaxK: 6, Trials: 2000, Seed: 5})
	t2, _ := Estimate(dt, Options{MaxK: 6, Trials: 2000, Seed: 5})
	for k := range t1.P {
		if t1.P[k] != t2.P[k] {
			t.Fatal("same seed should reproduce exactly")
		}
	}
}

// TestEstimateIndependentOfGOMAXPROCS checks that the table is a function
// of its Options alone: a host's core count must not change what an
// ε > 0 array admits against.
func TestEstimateIndependentOfGOMAXPROCS(t *testing.T) {
	dt, _ := decluster.NewDesignTheoretic(design.Paper931())
	opt := Options{MaxK: 12, Trials: 3001, Seed: 42}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one, err := Estimate(dt, opt)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	four, err := Estimate(dt, opt)
	if err != nil {
		t.Fatal(err)
	}
	for k := range one.P {
		if one.P[k] != four.P[k] {
			t.Fatalf("P[%d] = %v at GOMAXPROCS 1, %v at GOMAXPROCS 4", k, one.P[k], four.P[k])
		}
	}
}

func TestEstimateMonotoneTail(t *testing.T) {
	// Past k = N the optimum becomes >= 2 accesses and P_k jumps back to ~1
	// (paper: "The probability increases to 1 for k = 10").
	tab := table931(t, 5000)
	for k := 10; k <= 12; k++ {
		if tab.At(k) < 0.999 {
			t.Errorf("P%d = %.4f, want ~1 just past N", k, tab.At(k))
		}
	}
}

func BenchmarkEstimateFig4(b *testing.B) {
	dt, _ := decluster.NewDesignTheoretic(design.Paper931())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(dt, Options{MaxK: 12, Trials: 2000, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tab := &Table{N: 9, Trials: 100, P: []float64{1, 0.9, 0.75}}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != tab.N || got.Trials != tab.Trials || len(got.P) != len(tab.P) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range tab.P {
		if got.P[i] != tab.P[i] {
			t.Fatalf("P[%d] = %g, want %g", i, got.P[i], tab.P[i])
		}
	}
}

func TestLoadRejectsBad(t *testing.T) {
	cases := []string{
		"not json",
		`{"N":0,"P":[1]}`,
		`{"N":9,"P":[]}`,
		`{"N":9,"P":[1.5]}`,
		`{"N":9,"P":[-0.1]}`,
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("input %q should fail", c)
		}
	}
}
