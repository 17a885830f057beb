package retrieval

// This file implements the generalized optimal response-time retrieval the
// paper builds on (Altiparmak & Tosun, ICPP 2012 [15] and the accompanying
// technical report [14]): when devices have different service times —
// mixed-generation flash modules, or modules degraded by background work —
// the optimal schedule minimizes the makespan max_d load(d)·svc(d) rather
// than the maximum access count.
//
// Feasibility for a target makespan T is a max-flow instance where device
// d can absorb floor(T / svc[d]) blocks; the optimum is found by searching
// over the O(b·N) candidate makespans k·svc[d].

// HeteroResult is an optimal schedule on heterogeneous devices.
type HeteroResult struct {
	Makespan   float64 // time until the last block is retrieved
	Assignment []int   // Assignment[i] = device retrieving block i
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
