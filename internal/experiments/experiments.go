// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each experiment
// is a pure function returning typed rows; cmd/qosbench prints them and
// bench_test.go wraps them as benchmarks. Absolute numbers depend on the
// synthesized workloads (the SNIA traces are not redistributable; see the
// substitution table in DESIGN.md), but the shapes the paper reports —
// who wins, by what factor, where the crossovers fall — are asserted in
// this package's tests.
package experiments

import (
	"fmt"

	"flashqos/internal/admission"
	"flashqos/internal/decluster"
	"flashqos/internal/design"
	"flashqos/internal/maxflow"
	"flashqos/internal/retrieval"
	"flashqos/internal/sampling"
)

// Fig2Design returns the paper's printed (9,3,1) design.
func Fig2Design() *design.Design { return design.Paper931() }

// TableIPeriod is one period of the paper's worked example (Table I/Fig 5).
type TableIPeriod struct {
	Period   string
	Requests [][]int // replica triples requested this period
	Accesses int     // optimal parallel accesses used
}

// TableIResult is the outcome of the worked example.
type TableIResult struct {
	AdmittedApps []string
	RejectedApps []string
	Periods      []TableIPeriod
}

// TableI replays the paper's Table I admission example and the Fig 5
// retrieval schedule: applications with request sizes 2, 2, 1, 1 ask an
// admission.Registry for the S=5 limit of the (9,3,1) design at M=1, and
// the first three fill it; the four periods' request sets retrieve in one
// access each (T3 after remapping).
func TableI() TableIResult {
	var res TableIResult
	reg, _ := admission.NewRegistry(design.Paper931().S(1)) // S = 5 ≥ 1: cannot fail
	for _, app := range []struct {
		name string
		size int
	}{{"app1", 2}, {"app2", 2}, {"app3", 1}, {"app4", 1}} {
		line := fmt.Sprintf("%s (size %d)", app.name, app.size)
		if reg.Admit(app.name, app.size) != nil {
			res.RejectedApps = append(res.RejectedApps, line+": system full until an application leaves")
			continue
		}
		res.AdmittedApps = append(res.AdmittedApps, line)
	}
	periods := []struct {
		name string
		reqs [][]int
	}{
		{"T0", [][]int{{0, 3, 6}, {5, 7, 0}}},
		{"T1", [][]int{{0, 4, 8}, {8, 0, 4}, {7, 0, 5}}},
		{"T2", [][]int{{1, 2, 0}, {6, 0, 3}}},
		{"T3", [][]int{{1, 4, 7}, {1, 3, 8}, {0, 5, 7}, {0, 1, 2}}},
	}
	for _, p := range periods {
		r := retrieval.Optimal(p.reqs, 9)
		res.Periods = append(res.Periods, TableIPeriod{Period: p.name, Requests: p.reqs, Accesses: r.Accesses})
	}
	return res
}

// Fig3Requests is the paper's example of 9 non-conflicting requests.
var Fig3Requests = [][]int{
	{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {3, 8, 1}, {4, 8, 0},
	{5, 7, 0}, {6, 0, 3}, {7, 0, 5}, {8, 1, 3},
}

// Fig3NonConflicting verifies the paper's Fig 3: the 9 listed requests are
// retrievable in a single parallel access, returning the access count and
// the device assignment found.
func Fig3NonConflicting() (int, []int) {
	m, a := maxflow.MinAccesses(Fig3Requests, 9)
	return m, a
}

// Fig4Probabilities samples the optimal-retrieval probabilities P_k of the
// (9,3,1) design (paper Fig 4): P6 ≈ 0.99, P7 ≈ 0.98, P8 ≈ 0.95,
// P9 ≈ 0.75, and P_k = 1 beyond N.
func Fig4Probabilities(trials int, seed int64) (*sampling.Table, error) {
	dt, err := decluster.NewDesignTheoretic(design.Paper931())
	if err != nil {
		return nil, err
	}
	return sampling.Estimate(dt, sampling.Options{MaxK: 15, Trials: trials, Seed: seed})
}

// TableIIRow compares the retrieval algorithms for one request size
// (paper Table II).
type TableIIRow struct {
	S      int
	DTRMin int // design-theoretic (optimal batch) accesses seen
	DTRMax int
	OLRMin int // online sequential accesses seen
	OLRMax int
	Trials int
}

// TableIIRetrievalComparison samples distinct request sets of sizes 1..6
// on the (9,3,1) design and records the range of access counts under the
// design-theoretic batch retrieval (DTR) and the online sequential
// assignment (OLR). The paper's Table II: DTR = 1 for sizes 1–5, 2 at 6;
// OLR = "1 or 2" at sizes 4–5.
func TableIIRetrievalComparison(trials int, seed int64) ([]TableIIRow, error) {
	dt, err := decluster.NewDesignTheoretic(design.Paper931())
	if err != nil {
		return nil, err
	}
	rng := newRand(seed)
	rows := make([]TableIIRow, 6)
	sched := retrieval.NewScheduler() // reused across sizes and trials
	for s := 1; s <= 6; s++ {
		row := TableIIRow{S: s, DTRMin: 1 << 30, OLRMin: 1 << 30, Trials: trials}
		probe := func(replicas [][]int) {
			dtr := sched.Optimal(replicas, 9).Accesses
			olr := retrieval.SequentialAccesses(replicas, 9)
			row.DTRMin = min(row.DTRMin, dtr)
			row.DTRMax = max(row.DTRMax, dtr)
			row.OLRMin = min(row.OLRMin, olr)
			row.OLRMax = max(row.OLRMax, olr)
		}
		for trial := 0; trial < trials; trial++ {
			perm := rng.Perm(36)
			replicas := make([][]int, s)
			for i := range replicas {
				replicas[i] = dt.Replicas(perm[i])
			}
			probe(replicas)
		}
		if s == 6 {
			// The worst case the table's DTR(6)=2 refers to is rare under
			// uniform sampling (~50 of the 1.9M distinct 6-sets): the six
			// rotations of two design blocks sharing a device span only
			// five devices. Probe it explicitly so the bound is attained.
			d := dt.Design()
			adversarial := make([][]int, 0, 6)
			for r := 0; r < 3; r++ {
				for _, blk := range [][]int{d.Blocks[0], d.Blocks[1]} {
					row := []int{blk[r%3], blk[(r+1)%3], blk[(r+2)%3]}
					adversarial = append(adversarial, row)
				}
			}
			probe(adversarial)
		}
		rows[s-1] = row
	}
	return rows, nil
}

// String renders a Table II row like the paper ("1", "1 or 2").
func (r TableIIRow) String() string {
	rng := func(lo, hi int) string {
		if lo == hi {
			return fmt.Sprintf("%d", lo)
		}
		return fmt.Sprintf("%d or %d", lo, hi)
	}
	return fmt.Sprintf("S=%d DTR=%s OLR=%s", r.S, rng(r.DTRMin, r.DTRMax), rng(r.OLRMin, r.OLRMax))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
