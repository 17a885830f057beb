package retrieval

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flashqos/internal/maxflow"
)

// --- From-scratch reference implementations ---
//
// referenceGreedy is a verbatim copy of the pre-engine Greedy (fresh
// buffers, full maxLoad rescan after every pass). The incremental-maxLoad
// rewrite must reproduce it bit-for-bit.
func referenceGreedy(replicas [][]int, n int) Result {
	b := len(replicas)
	assign := make([]int, b)
	load := make([]int, n)
	for i, devs := range replicas {
		assign[i] = devs[0]
		load[devs[0]]++
	}
	maxLoad := 0
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	for m := lowerBound(b, n); m < maxLoad; {
		moved := false
		for i, devs := range replicas {
			cur := assign[i]
			if load[cur] <= m {
				continue
			}
			best := cur
			for _, d := range devs {
				if load[d] < load[best] {
					best = d
				}
			}
			if best != cur && load[best] < m {
				load[cur]--
				load[best]++
				assign[i] = best
				moved = true
			}
		}
		maxLoad = 0
		for _, l := range load {
			if l > maxLoad {
				maxLoad = l
			}
		}
		if !moved {
			m++
		}
	}
	return Result{Accesses: maxLoad, Assignment: assign}
}

// referenceHeteroFeasible is a copy of the pre-engine feasibleWithCaps
// (fresh graph per probe), used to rebuild the pre-engine MinResponseTime.
func referenceHeteroFeasible(replicas [][]int, caps []int) (maxflow.Assignment, bool) {
	b := len(replicas)
	n := len(caps)
	src, sink := 0, b+n+1
	g := maxflow.NewGraph(b + n + 2)
	type be struct{ block, device, idx int }
	var edges []be
	idx := 0
	for i := range replicas {
		g.AddEdge(src, 1+i, 1)
		idx++
	}
	for i, devs := range replicas {
		for _, d := range devs {
			g.AddEdge(1+i, 1+b+d, 1)
			edges = append(edges, be{i, d, idx})
			idx++
		}
	}
	for d := 0; d < n; d++ {
		g.AddEdge(1+b+d, sink, caps[d])
		idx++
	}
	if g.MaxFlow(src, sink) != b {
		return nil, false
	}
	assign := make(maxflow.Assignment, b)
	for i := range assign {
		assign[i] = -1
	}
	for _, e := range edges {
		if g.Flow(e.idx) > 0 {
			assign[e.block] = e.device
		}
	}
	return assign, true
}

func referenceMinResponseTime(replicas [][]int, svc []float64) HeteroResult {
	n := len(svc)
	b := len(replicas)
	if b == 0 {
		return HeteroResult{}
	}
	cands := make([]float64, 0, b*n)
	for _, s := range svc {
		for k := 1; k <= b; k++ {
			cands = append(cands, float64(k)*s)
		}
	}
	sort.Float64s(cands)
	cands = dedupFloats(cands)
	feasible := func(T float64) (maxflow.Assignment, bool) {
		caps := make([]int, n)
		for d, s := range svc {
			caps[d] = int(T / s * (1 + 1e-12))
		}
		return referenceHeteroFeasible(replicas, caps)
	}
	lo, hi := 0, len(cands)-1
	if _, ok := feasible(cands[hi]); !ok {
		panic("reference: largest makespan infeasible")
	}
	var best maxflow.Assignment
	for lo < hi {
		mid := (lo + hi) / 2
		if a, ok := feasible(cands[mid]); ok {
			best = a
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		a, ok := feasible(cands[lo])
		if !ok {
			panic("reference: converged on infeasible makespan")
		}
		best = a
	}
	return HeteroResult{Makespan: cands[lo], Assignment: best}
}

func randReplicaSet(r *rand.Rand, maxB, maxN int) ([][]int, int) {
	n := 2 + r.Intn(maxN-1)
	b := 1 + r.Intn(maxB)
	replicas := make([][]int, b)
	for i := range replicas {
		c := 1 + r.Intn(minI(n, 4))
		perm := r.Perm(n)
		replicas[i] = perm[:c]
	}
	return replicas, n
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestGreedyMatchesReference: the incremental-maxLoad greedy must be
// bit-identical to the rescan-per-pass reference — same access count AND
// same assignment — across random instances.
func TestGreedyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	for trial := 0; trial < 5000; trial++ {
		replicas, n := randReplicaSet(r, 40, 12)
		want := referenceGreedy(replicas, n)
		got := NewScheduler().Greedy(replicas, n)
		if got.Accesses != want.Accesses || !reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Fatalf("trial %d: Greedy = %+v, reference %+v (b=%d n=%d)", trial, got, want, len(replicas), n)
		}
	}
}

// TestSchedulerMatchesPureFunctions reuses one Scheduler across random
// instances and checks every method against its pure per-call counterpart.
func TestSchedulerMatchesPureFunctions(t *testing.T) {
	r := rand.New(rand.NewSource(654))
	s := NewScheduler()
	for trial := 0; trial < 3000; trial++ {
		replicas, n := randReplicaSet(r, 30, 10)
		wantG := NewScheduler().Greedy(replicas, n)
		gotG := s.Greedy(replicas, n)
		if gotG.Accesses != wantG.Accesses || !reflect.DeepEqual(append([]int{}, gotG.Assignment...), wantG.Assignment) {
			t.Fatalf("trial %d: Scheduler.Greedy = %+v, want %+v", trial, gotG, wantG)
		}
		wantO := Optimal(replicas, n)
		gotO := s.Optimal(replicas, n)
		if gotO.Accesses != wantO.Accesses || !reflect.DeepEqual(append([]int{}, gotO.Assignment...), wantO.Assignment) {
			t.Fatalf("trial %d: Scheduler.Optimal = %+v, want %+v", trial, gotO, wantO)
		}
	}
}

// TestSchedulerMinResponseTimeMatchesReference: the engine-backed makespan
// scheduler must reproduce the fresh-graph binary search bit-for-bit.
func TestSchedulerMinResponseTimeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(987))
	s := NewScheduler()
	for trial := 0; trial < 400; trial++ {
		replicas, n := randReplicaSet(r, 15, 8)
		svc := make([]float64, n)
		for d := range svc {
			svc[d] = 0.1 + r.Float64()
			if r.Intn(3) == 0 {
				svc[d] *= 3 // degraded module
			}
		}
		want := referenceMinResponseTime(replicas, svc)
		got := s.MinResponseTime(replicas, svc)
		if got.Makespan != want.Makespan || !reflect.DeepEqual(append([]int{}, got.Assignment...), []int(want.Assignment)) {
			t.Fatalf("trial %d: MinResponseTime = %+v, reference %+v", trial, got, want)
		}
	}
}

// TestSchedulerOptimalAllocs pins the combined greedy+maxflow decision at
// zero steady-state allocations, including instances that take the exact
// fallback.
func TestSchedulerOptimalAllocs(t *testing.T) {
	// Skewed on device 0: lower bound is 1 but M* is 4, so every call must
	// take the exact max-flow fallback (greedy alone cannot certify).
	replicas := [][]int{{0}, {0}, {0}, {0}, {0, 1}, {0, 1}, {1, 2}, {2, 3}}
	s := NewScheduler()
	r := s.Optimal(replicas, 9) // warm up buffers
	if r.Accesses <= lowerBound(len(replicas), 9) {
		t.Fatalf("instance too easy (accesses=%d): fallback path not exercised", r.Accesses)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.Optimal(replicas, 9)
	}); allocs != 0 {
		t.Errorf("Scheduler.Optimal allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestOnlineSubmitAllocs pins the single-request online path at zero
// allocations.
func TestOnlineSubmitAllocs(t *testing.T) {
	dt := dt931(t)
	o := NewOnline(9, service)
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		o.Submit(float64(i)*0.01, dt.Replicas(i%36))
		i++
	}); allocs != 0 {
		t.Errorf("Online.Submit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestOnlineBatchEngineMatchesWrapper: batches scheduled through the
// per-Online engine must land exactly where the pure-function path puts
// them.
func TestOnlineBatchEngineMatchesWrapper(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	dt := dt931(t)
	a := NewOnline(9, service)
	b := NewOnline(9, service)
	for round := 0; round < 50; round++ {
		k := 2 + r.Intn(8) // k >= 2: single-request batches take the Submit path
		replicas := make([][]int, k)
		for i := range replicas {
			replicas[i] = dt.Replicas(r.Intn(36))
		}
		at := float64(round) * 0.2
		ca := a.SubmitBatch(at, replicas)
		// Reference: identical scheduling decisions computed via the pure
		// Optimal on a second, independent Online instance.
		res := Optimal(replicas, 9)
		cb := make([]Completion, len(replicas))
		for i, d := range res.Assignment {
			start := at
			if nf := b.NextFree(d); nf > start {
				start = nf
			}
			finish := start + service
			b.dev[d].nextFree = finish
			b.dev[d].busy += service
			cb[i] = Completion{Device: d, Start: start, Finish: finish}
		}
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("round %d: engine batch %v, reference %v", round, ca, cb)
		}
	}
}
