package retrieval

import (
	"fmt"
	"sort"

	"flashqos/internal/maxflow"
)

// Scheduler is a reusable retrieval engine: it owns the scratch buffers of
// the greedy algorithm (assignment, per-device loads, load histogram) and a
// maxflow.Solver for the exact fallback, so repeated scheduling decisions
// perform zero heap allocations in the steady state. Results are
// bit-identical to the pure Greedy/Optimal/MinResponseTime functions, which
// are thin per-call wrappers over a throwaway Scheduler.
//
// A Scheduler is NOT safe for concurrent use, and the Assignment slices it
// returns are backed by internal buffers that the next call overwrites.
// Use one Scheduler per goroutine and copy results that must be retained.
type Scheduler struct {
	solver *maxflow.Solver
	assign []int
	load   []int
	cnt    []int // cnt[l] = number of devices currently at load l
	// heterogeneous (makespan) scratch
	cands []float64
	caps  []int
}

// NewScheduler returns an empty Scheduler; buffers grow to the working
// set's high-water mark over the first few calls and are then reused.
func NewScheduler() *Scheduler {
	return &Scheduler{solver: maxflow.NewSolver(0, 0)}
}

// grow returns buf resized to n, reusing its backing array when possible.
func grow(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// Greedy runs the design-theoretic retrieval algorithm. replicas[i] lists
// the devices storing block i in copy order; n is the device count. Every
// block starts on its first copy; while some device exceeds the current
// target load, blocks are moved to a strictly less loaded replica device.
// When no single move helps, the target is raised. The result is optimal
// whenever a sequence of single-block moves reaches the optimum — in
// particular for request sizes within the design guarantee — but is not
// guaranteed optimal in general (use Optimal for that). It runs on the
// Scheduler's scratch buffers, so the returned assignment is valid only
// until the next call.
func (s *Scheduler) Greedy(replicas [][]int, n int) Result {
	b := len(replicas)
	s.assign = grow(s.assign, b)
	s.load = grow(s.load, n)
	s.cnt = grow(s.cnt, b+1)
	for i := range s.load {
		s.load[i] = 0
	}
	for i := range s.cnt {
		s.cnt[i] = 0
	}
	acc := greedyRun(replicas, n, s.assign, s.load, s.cnt)
	return Result{Accesses: acc, Assignment: s.assign}
}

// Optimal runs the paper's combined retrieval (greedy, exact max-flow
// fallback when greedy misses the ⌈b/N⌉ bound) on reused buffers.
// Semantics match the package-level Optimal; the returned assignment is
// valid only until the next call.
func (s *Scheduler) Optimal(replicas [][]int, n int) Result {
	b := len(replicas)
	if b == 0 {
		return Result{}
	}
	g := s.Greedy(replicas, n)
	if g.Accesses == lowerBound(b, n) {
		return g
	}
	m, a := s.solver.Solve(replicas, n)
	return Result{Accesses: m, Assignment: a}
}

// MinResponseTime computes the minimal-makespan retrieval of the given
// blocks when device d takes svc[d] per block, reusing the Scheduler's
// feasibility network across the makespan search. replicas[i] lists the
// devices holding block i. Panics on invalid input (empty replica lists,
// non-positive service times). The returned assignment is valid only until
// the next call.
func (s *Scheduler) MinResponseTime(replicas [][]int, svc []float64) HeteroResult {
	n := len(svc)
	for d, sv := range svc {
		if sv <= 0 {
			panic(fmt.Sprintf("retrieval: device %d has non-positive service time %g", d, sv))
		}
	}
	b := len(replicas)
	if b == 0 {
		return HeteroResult{}
	}
	for i, devs := range replicas {
		if len(devs) == 0 {
			panic(fmt.Sprintf("retrieval: block %d has no replicas", i))
		}
		for _, d := range devs {
			if d < 0 || d >= n {
				panic(fmt.Sprintf("retrieval: block %d names device %d outside [0,%d)", i, d, n))
			}
		}
	}
	// Candidate makespans: k blocks on device d finish at k*svc[d].
	if cap(s.cands) < b*n {
		s.cands = make([]float64, 0, b*n)
	}
	s.cands = s.cands[:0]
	for _, sv := range svc {
		for k := 1; k <= b; k++ {
			s.cands = append(s.cands, float64(k)*sv)
		}
	}
	sort.Float64s(s.cands)
	cands := dedupFloats(s.cands)

	s.caps = grow(s.caps, n)
	feasible := func(T float64) (maxflow.Assignment, bool) {
		for d, sv := range svc {
			s.caps[d] = int(T / sv * (1 + 1e-12)) // tolerate float noise at exact multiples
		}
		return s.solver.FeasibleCaps(replicas, s.caps)
	}
	// Binary search the smallest feasible candidate.
	lo, hi := 0, len(cands)-1
	if _, ok := feasible(cands[hi]); !ok {
		panic("retrieval: even the largest makespan is infeasible") // unreachable: all blocks on one device fits
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
			panic("retrieval: binary search converged on infeasible makespan")
		}
		best = a
	}
	return HeteroResult{Makespan: cands[lo], Assignment: best}
}
