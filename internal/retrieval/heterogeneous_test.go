package retrieval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// minResponseTime solves on a fresh Scheduler, so no case shares scratch
// with another.
func minResponseTime(replicas [][]int, svc []float64) HeteroResult {
	return NewScheduler().MinResponseTime(replicas, svc)
}

func TestHeteroEmptyAndSingle(t *testing.T) {
	r := minResponseTime(nil, []float64{1, 1})
	if r.Makespan != 0 || len(r.Assignment) != 0 {
		t.Error("empty request should have zero makespan")
	}
	r = minResponseTime([][]int{{1}}, []float64{1, 2})
	if r.Makespan != 2 || r.Assignment[0] != 1 {
		t.Errorf("single block on device 1: %+v", r)
	}
}

func TestHeteroUniformMatchesHomogeneous(t *testing.T) {
	// With equal service times the makespan is Optimal accesses × svc.
	rng := rand.New(rand.NewSource(3))
	svc := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
	for trial := 0; trial < 200; trial++ {
		b := 1 + rng.Intn(20)
		replicas := make([][]int, b)
		for i := range replicas {
			perm := rng.Perm(9)
			replicas[i] = perm[:3]
		}
		h := minResponseTime(replicas, svc)
		o := Optimal(replicas, 9)
		if math.Abs(h.Makespan-float64(o.Accesses)) > 1e-9 {
			t.Fatalf("uniform: makespan %g != optimal accesses %d", h.Makespan, o.Accesses)
		}
	}
}

func TestHeteroPrefersFastDevice(t *testing.T) {
	// Device 0 is 4x slower; three blocks replicated on {0,1}: optimal puts
	// at most one block on the slow device (makespan 4 vs 2 if two go fast).
	replicas := [][]int{{0, 1}, {0, 1}, {0, 1}}
	svc := []float64{4, 1}
	r := minResponseTime(replicas, svc)
	// Best: all three on device 1 → 3; or split 1 slow + 2 fast → max(4,2)=4.
	if r.Makespan != 3 {
		t.Errorf("makespan %g, want 3 (all on the fast device)", r.Makespan)
	}
	for i, d := range r.Assignment {
		if d != 1 {
			t.Errorf("block %d on slow device %d", i, d)
		}
	}
}

func TestHeteroDegradedModule(t *testing.T) {
	// A module degraded by GC (2x service) shifts load to its partners.
	svc := []float64{1, 1, 2}
	replicas := [][]int{{0, 2}, {1, 2}, {2, 0}, {2, 1}}
	r := minResponseTime(replicas, svc)
	// Feasible at makespan 2: devices 0,1 take two blocks each... blocks:
	// {0,2},{1,2},{2,0},{2,1} → 0 gets blocks 0,2; 1 gets 1,3; dev2 idle →
	// makespan 2.
	if r.Makespan != 2 {
		t.Errorf("makespan %g, want 2", r.Makespan)
	}
}

func TestHeteroPanics(t *testing.T) {
	for _, f := range []func(){
		func() { minResponseTime([][]int{{0}}, []float64{0}) },
		func() { minResponseTime([][]int{{}}, []float64{1}) },
		func() { minResponseTime([][]int{{3}}, []float64{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: the result is feasible (per-device load × svc <= makespan,
// assignments respect replica sets) and no candidate makespan strictly
// smaller is feasible (checked by brute force on small instances).
func TestQuickHeteroOptimality(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		svc := make([]float64, n)
		for d := range svc {
			svc[d] = float64(1+rng.Intn(4)) * 0.5
		}
		b := 1 + rng.Intn(8)
		replicas := make([][]int, b)
		for i := range replicas {
			c := 1 + rng.Intn(n)
			perm := rng.Perm(n)
			replicas[i] = perm[:c]
		}
		r := minResponseTime(replicas, svc)
		// Feasibility.
		load := make([]int, n)
		for i, d := range r.Assignment {
			ok := false
			for _, rd := range replicas[i] {
				if rd == d {
					ok = true
				}
			}
			if !ok {
				return false
			}
			load[d]++
		}
		for d, l := range load {
			if float64(l)*svc[d] > r.Makespan+1e-9 {
				return false
			}
		}
		// Optimality by brute force over all assignments (c^b small).
		best := math.Inf(1)
		var walk func(i int, load []float64)
		walk = func(i int, load []float64) {
			if i == b {
				worst := 0.0
				for _, l := range load {
					if l > worst {
						worst = l
					}
				}
				if worst < best {
					best = worst
				}
				return
			}
			for _, d := range replicas[i] {
				load[d] += svc[d]
				walk(i+1, load)
				load[d] -= svc[d]
			}
		}
		walk(0, make([]float64, n))
		return math.Abs(best-r.Makespan) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHetero27(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	svc := make([]float64, 9)
	for d := range svc {
		svc[d] = 0.1 + 0.05*float64(d%3)
	}
	replicas := make([][]int, 27)
	for i := range replicas {
		perm := rng.Perm(9)
		replicas[i] = perm[:3]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minResponseTime(replicas, svc)
	}
}
