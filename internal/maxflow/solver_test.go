package maxflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// --- From-scratch reference implementations ---
//
// These build a fresh Graph per call, with a bookkeeping slice for the
// block edges. The Solver must reproduce their results bit-for-bit — same
// feasibility verdicts, same M*, same assignments — across arbitrary
// instances and arbitrary reuse orders.

func referenceFeasible(replicas [][]int, n, m int) (Assignment, bool) {
	b := len(replicas)
	if b == 0 {
		return Assignment{}, true
	}
	if m <= 0 {
		return nil, false
	}
	src, sink := 0, b+n+1
	g := NewGraph(b + n + 2)
	type blockEdge struct{ block, device, edgeIdx int }
	var bEdges []blockEdge
	edgeCount := 0
	for i := range replicas {
		g.AddEdge(src, 1+i, 1)
		edgeCount++
	}
	for i, devs := range replicas {
		for _, d := range devs {
			g.AddEdge(1+i, 1+b+d, 1)
			bEdges = append(bEdges, blockEdge{i, d, edgeCount})
			edgeCount++
		}
	}
	for d := 0; d < n; d++ {
		g.AddEdge(1+b+d, sink, m)
		edgeCount++
	}
	if g.MaxFlow(src, sink) != b {
		return nil, false
	}
	assign := make(Assignment, b)
	for i := range assign {
		assign[i] = -1
	}
	for _, be := range bEdges {
		if g.Flow(be.edgeIdx) > 0 {
			assign[be.block] = be.device
		}
	}
	return assign, true
}

func referenceMinAccesses(replicas [][]int, n int) (int, Assignment) {
	b := len(replicas)
	if b == 0 {
		return 0, Assignment{}
	}
	m := (b + n - 1) / n
	for {
		if a, ok := referenceFeasible(replicas, n, m); ok {
			return m, a
		}
		m++
		if m > b {
			panic("maxflow: no feasible schedule — block with no valid replica")
		}
	}
}

func referenceFeasibleCaps(replicas [][]int, caps []int) (Assignment, bool) {
	b := len(replicas)
	n := len(caps)
	src, sink := 0, b+n+1
	g := NewGraph(b + n + 2)
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
	assign := make(Assignment, b)
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

// randInstance draws a random replica-set instance. With emptyProb > 0 some
// blocks get empty replica lists, modelling buckets whose devices all
// failed.
func randInstance(r *rand.Rand, maxB, maxN int, emptyProb float64) ([][]int, int) {
	n := 1 + r.Intn(maxN)
	b := r.Intn(maxB + 1)
	replicas := make([][]int, b)
	for i := range replicas {
		if r.Float64() < emptyProb {
			replicas[i] = nil
			continue
		}
		c := 1 + r.Intn(minInt(n, 4))
		perm := r.Perm(n)
		replicas[i] = perm[:c]
	}
	return replicas, n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func hasEmpty(replicas [][]int) bool {
	for _, devs := range replicas {
		if len(devs) == 0 {
			return true
		}
	}
	return false
}

// checkSchedule reports whether a places every block on one of its replicas
// with no device serving more than m blocks.
func checkSchedule(replicas [][]int, a Assignment, m int) error {
	if len(a) != len(replicas) {
		return fmt.Errorf("%d assignments for %d blocks", len(a), len(replicas))
	}
	load := map[int]int{}
	for i, d := range a {
		found := false
		for _, r := range replicas[i] {
			found = found || r == d
		}
		if !found {
			return fmt.Errorf("block %d assigned to non-replica device %d", i, d)
		}
		if load[d]++; load[d] > m {
			return fmt.Errorf("device %d serves more than m=%d blocks", d, m)
		}
	}
	return nil
}

// checkFeasible runs s.Feasible on one instance and fails t unless its
// verdict and assignment are bit-identical to the fresh-graph reference and
// every feasible schedule keeps each block on a replica within m per device.
func checkFeasible(t *testing.T, s *Solver, name string, replicas [][]int, n, m int) bool {
	t.Helper()
	wantA, wantOK := referenceFeasible(replicas, n, m)
	gotA, gotOK := s.Feasible(replicas, n, m)
	if gotOK != wantOK {
		t.Fatalf("%s: Feasible ok = %v, reference %v (b=%d n=%d m=%d)",
			name, gotOK, wantOK, len(replicas), n, m)
	}
	if wantOK && !reflect.DeepEqual(append(Assignment{}, gotA...), wantA) {
		t.Fatalf("%s: assignment %v, reference %v (b=%d n=%d m=%d)",
			name, gotA, wantA, len(replicas), n, m)
	}
	if gotOK {
		if err := checkSchedule(replicas, gotA, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return gotOK
}

// feasibleCase is a fixed instance with a known verdict.
type feasibleCase struct {
	name     string
	replicas [][]int
	n, m     int
	ok       bool
}

func checkFeasibleCases(t *testing.T, cases []feasibleCase) {
	t.Helper()
	s := NewSolver(0, 0)
	for _, c := range cases {
		if got := checkFeasible(t, s, c.name, c.replicas, c.n, c.m); got != c.ok {
			t.Errorf("%s: feasible = %v, want %v", c.name, got, c.ok)
		}
	}
}

func TestBipartiteMatching(t *testing.T) {
	// Block i on device i or i+1 (mod 3): a perfect matching, one access.
	checkFeasibleCases(t, []feasibleCase{
		{"bipartite matching", [][]int{{0, 1}, {1, 2}, {2, 0}}, 3, 1, true},
	})
}

func TestInfeasible(t *testing.T) {
	// Two blocks stored only on device 0 need two accesses.
	checkFeasibleCases(t, []feasibleCase{
		{"pinned m=1", [][]int{{0}, {0}}, 2, 1, false},
		{"pinned m=2", [][]int{{0}, {0}}, 2, 2, true},
	})
	if m, _ := MinAccesses([][]int{{0}, {0}}, 2); m != 2 {
		t.Errorf("MinAccesses = %d, want 2", m)
	}
	if m, _ := referenceMinAccesses([][]int{{0}, {0}}, 2); m != 2 {
		t.Errorf("referenceMinAccesses = %d, want 2", m)
	}
}

func TestFeasibleEdgeCases(t *testing.T) {
	checkFeasibleCases(t, []feasibleCase{
		{"empty request", nil, 5, 1, true},
		{"m=0", [][]int{{0}}, 1, 0, false},
	})
	if m, _ := MinAccesses(nil, 4); m != 0 {
		t.Error("MinAccesses of empty request should be 0")
	}
	if m, _ := referenceMinAccesses(nil, 4); m != 0 {
		t.Error("referenceMinAccesses of empty request should be 0")
	}
}

// TestSolverFeasibleMatchesReference reuses ONE solver across thousands of
// random instances — including infeasible m, m <= 0, empty requests, and
// failed-device (empty replica list) blocks — and demands bit-identical
// results versus the fresh-graph reference on every call.
func TestSolverFeasibleMatchesReference(t *testing.T) {
	s := NewSolver(8, 4) // deliberately small: exercises buffer growth too
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 5000; trial++ {
		replicas, n := randInstance(r, 30, 12, 0.05)
		m := r.Intn(len(replicas)+3) - 1 // includes -1, 0, and > needed
		checkFeasible(t, s, fmt.Sprintf("trial %d", trial), replicas, n, m)
	}
}

// TestSolverSolveMatchesReference checks the incremental M-raising path:
// M* and the assignment must match the reference that re-solves from
// scratch at every M.
func TestSolverSolveMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := NewSolver(0, 0) // all growth on demand
	for trial := 0; trial < 5000; trial++ {
		replicas, n := randInstance(r, 25, 10, 0)
		if hasEmpty(replicas) {
			continue
		}
		wantM, wantA := referenceMinAccesses(replicas, n)
		gotM, gotA := s.Solve(replicas, n)
		if gotM != wantM {
			t.Fatalf("trial %d: M* = %d, reference %d (b=%d n=%d)", trial, gotM, wantM, len(replicas), n)
		}
		if !reflect.DeepEqual(append(Assignment{}, gotA...), wantA) {
			t.Fatalf("trial %d: assignment %v, reference %v (b=%d n=%d M*=%d)",
				trial, gotA, wantA, len(replicas), n, gotM)
		}
	}
}

// TestSolverSkewedInstances forces deep M-raising: all blocks concentrated
// on one or two devices, so M* is far above ⌈b/n⌉ and the incremental path
// performs many capacity bumps.
func TestSolverSkewedInstances(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewSolver(16, 16)
	for trial := 0; trial < 500; trial++ {
		n := 2 + r.Intn(8)
		b := 1 + r.Intn(16)
		hot := r.Intn(n)
		replicas := make([][]int, b)
		for i := range replicas {
			if r.Intn(4) == 0 {
				replicas[i] = []int{hot, (hot + 1) % n}
			} else {
				replicas[i] = []int{hot}
			}
		}
		wantM, wantA := referenceMinAccesses(replicas, n)
		gotM, gotA := s.Solve(replicas, n)
		if gotM != wantM || !reflect.DeepEqual(append(Assignment{}, gotA...), wantA) {
			t.Fatalf("trial %d: (%d,%v), reference (%d,%v)", trial, gotM, gotA, wantM, wantA)
		}
	}
}

// TestSolverFeasibleCapsMatchesReference covers the heterogeneous
// (per-device capacity) network, including zero capacities.
func TestSolverFeasibleCapsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	s := NewSolver(4, 4)
	for trial := 0; trial < 3000; trial++ {
		replicas, n := randInstance(r, 20, 8, 0)
		caps := make([]int, n)
		for d := range caps {
			caps[d] = r.Intn(len(replicas) + 2)
		}
		wantA, wantOK := referenceFeasibleCaps(replicas, caps)
		gotA, gotOK := s.FeasibleCaps(replicas, caps)
		if gotOK != wantOK {
			t.Fatalf("trial %d: ok = %v, reference %v", trial, gotOK, wantOK)
		}
		if wantOK && !reflect.DeepEqual(append(Assignment{}, gotA...), wantA) {
			t.Fatalf("trial %d: assignment %v, reference %v", trial, gotA, wantA)
		}
	}
}

// TestSolverRepeatedReuse solves the same instance many times (the
// same-shape rewrite fast path) and interleaves shape changes; every
// repetition must return the same result.
func TestSolverRepeatedReuse(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	s := NewSolver(10, 6)
	type inst struct {
		replicas [][]int
		n        int
		m        int
		a        Assignment
	}
	var insts []inst
	for i := 0; i < 20; i++ {
		replicas, n := randInstance(r, 15, 6, 0)
		if hasEmpty(replicas) || len(replicas) == 0 {
			continue
		}
		m, a := referenceMinAccesses(replicas, n)
		insts = append(insts, inst{replicas, n, m, a})
	}
	for round := 0; round < 10; round++ {
		for i, in := range insts {
			gotM, gotA := s.Solve(in.replicas, in.n)
			if gotM != in.m || !reflect.DeepEqual(append(Assignment{}, gotA...), in.a) {
				t.Fatalf("round %d inst %d: (%d,%v), want (%d,%v)", round, i, gotM, gotA, in.m, in.a)
			}
		}
	}
}

// TestSolverEmptyReplicaInfeasible: blocks with no surviving replica make
// every m infeasible and Solve must panic exactly like the reference.
func TestSolverEmptyReplicaInfeasible(t *testing.T) {
	s := NewSolver(4, 4)
	replicas := [][]int{{0}, nil, {1}}
	if _, ok := s.Feasible(replicas, 4, 3); ok {
		t.Error("instance with an empty replica list must be infeasible")
	}
	defer func() {
		if recover() == nil {
			t.Error("Solve with an unservable block should panic like MinAccesses")
		}
	}()
	s.Solve(replicas, 4)
}

// TestSolverDeviceValidation: invalid device ids panic in the upfront
// validation pass with the reference message.
func TestSolverDeviceValidation(t *testing.T) {
	s := NewSolver(4, 4)
	for _, bad := range [][][]int{{{3}}, {{-1}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("device set %v should panic", bad)
				}
			}()
			s.Feasible(bad, 3, 1)
		}()
	}
}

// TestSolverSolveAllocs pins the steady-state allocation count of the
// engine at zero: once buffers have grown to the instance shape, repeated
// solves must not touch the heap.
func TestSolverSolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	replicas := make([][]int, 27)
	for i := range replicas {
		perm := rng.Perm(9)
		replicas[i] = perm[:3]
	}
	s := NewSolver(27, 9)
	s.Solve(replicas, 9) // warm up buffers
	if allocs := testing.AllocsPerRun(200, func() {
		s.Solve(replicas, 9)
	}); allocs != 0 {
		t.Errorf("Solver.Solve allocates %.1f objects/op in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.Feasible(replicas, 9, 3)
	}); allocs != 0 {
		t.Errorf("Solver.Feasible allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestSolverAllocsAcrossShapes: alternating between two shapes (the
// rebuild path, not just the fast rewrite) must also be allocation-free
// once both shapes have been seen.
func TestSolverAllocsAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := make([][]int, 5)
	for i := range small {
		perm := rng.Perm(9)
		small[i] = perm[:3]
	}
	big := make([][]int, 27)
	for i := range big {
		perm := rng.Perm(9)
		big[i] = perm[:3]
	}
	s := NewSolver(27, 9)
	s.Solve(small, 9)
	s.Solve(big, 9)
	if allocs := testing.AllocsPerRun(100, func() {
		s.Solve(small, 9)
		s.Solve(big, 9)
	}); allocs != 0 {
		t.Errorf("shape-alternating Solve allocates %.1f objects/op, want 0", allocs)
	}
}
