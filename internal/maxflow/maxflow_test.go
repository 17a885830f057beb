package maxflow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplePath(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 5)
	if got := g.MaxFlow(0, 3); got != 2 {
		t.Errorf("MaxFlow = %d, want 2 (bottleneck)", got)
	}
}

func TestParallelPaths(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 10)
	g.AddEdge(1, 3, 4)
	g.AddEdge(2, 4, 9)
	g.AddEdge(3, 5, 10)
	g.AddEdge(4, 5, 10)
	if got := g.MaxFlow(0, 5); got != 13 {
		t.Errorf("MaxFlow = %d, want 13", got)
	}
}

func TestClassicCLRS(t *testing.T) {
	// CLRS Figure 26.1 network; max flow 23.
	g := NewGraph(6)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 3, 12)
	g.AddEdge(2, 1, 4)
	g.AddEdge(2, 4, 14)
	g.AddEdge(3, 2, 9)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 3, 7)
	g.AddEdge(4, 5, 4)
	if got := g.MaxFlow(0, 5); got != 23 {
		t.Errorf("MaxFlow = %d, want 23", got)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 5)
	if got := g.MaxFlow(0, 3); got != 0 {
		t.Errorf("MaxFlow = %d, want 0", got)
	}
}

func TestSourceEqualsSink(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 5)
	if got := g.MaxFlow(0, 0); got != 0 {
		t.Errorf("MaxFlow(s,s) = %d, want 0", got)
	}
}

func TestReset(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 2)
	if g.MaxFlow(0, 2) != 2 {
		t.Fatal("first flow wrong")
	}
	g.Reset()
	if got := g.MaxFlow(0, 2); got != 2 {
		t.Errorf("after Reset: MaxFlow = %d, want 2", got)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph(2)
	for _, c := range []func(){
		func() { g.AddEdge(0, 2, 1) },
		func() { g.AddEdge(-1, 1, 1) },
		func() { g.AddEdge(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c()
		}()
	}
}

func TestPaperFig3(t *testing.T) {
	// Paper Fig 3: 9 non-conflicting (9,3,1) requests retrievable in 1 access.
	replicas := [][]int{
		{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {3, 8, 1}, {4, 8, 0},
		{5, 7, 0}, {6, 0, 3}, {7, 0, 5}, {8, 1, 3},
	}
	m, a := MinAccesses(replicas, 9)
	if m != 1 {
		t.Errorf("Fig 3 request set needs %d accesses, paper says 1", m)
	}
	seen := map[int]bool{}
	for _, d := range a {
		if seen[d] {
			t.Errorf("device %d used twice in optimal 1-access schedule", d)
		}
		seen[d] = true
	}
}

// Property: MinAccesses is always >= ceil(b/n) and the returned assignment
// respects replica sets and the load bound.
func TestQuickMinAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		b := 1 + r.Intn(25)
		c := 2 + r.Intn(2)
		replicas := make([][]int, b)
		for i := range replicas {
			perm := r.Perm(n)
			replicas[i] = perm[:c]
		}
		m, a := MinAccesses(replicas, n)
		if m < (b+n-1)/n {
			return false
		}
		load := make([]int, n)
		for i, d := range a {
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
		for _, l := range load {
			if l > m {
				return false
			}
		}
		// Minimality: m-1 must be infeasible (or m is the lower bound).
		if m > (b+n-1)/n {
			if _, ok := referenceFeasible(replicas, n, m-1); ok {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: flow conservation — for random graphs, flow out of source equals
// flow into sink, and per-edge flow <= capacity.
func TestQuickFlowConservation(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		g := NewGraph(n)
		type e struct{ u, v, c int }
		var es []e
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			c := r.Intn(10)
			g.AddEdge(u, v, c)
			es = append(es, e{u, v, c})
		}
		val := g.MaxFlow(0, n-1)
		if val < 0 {
			return false
		}
		net := make([]int, n)
		for i, ed := range es {
			f := g.Flow(i)
			if f < 0 || f > ed.c {
				return false
			}
			net[ed.u] -= f
			net[ed.v] += f
		}
		for v := 0; v < n; v++ {
			switch v {
			case 0:
				if net[v] != -val {
					return false
				}
			case n - 1:
				if net[v] != val {
					return false
				}
			default:
				if net[v] != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkMinAccesses27 measures the steady-state engine path: one Solver
// reused across solves, as every hot call site now does.
func BenchmarkMinAccesses27(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	replicas := make([][]int, 27)
	for i := range replicas {
		perm := rng.Perm(9)
		replicas[i] = perm[:3]
	}
	s := NewSolver(27, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(replicas, 9)
	}
}

// BenchmarkMinAccesses27PerCall measures the compatibility wrapper, which
// pays a fresh Solver per call.
func BenchmarkMinAccesses27PerCall(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	replicas := make([][]int, 27)
	for i := range replicas {
		perm := rng.Perm(9)
		replicas[i] = perm[:3]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinAccesses(replicas, 9)
	}
}
