package experiments

import (
	"math/rand"

	"flashqos/internal/admission"
	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/stats"
)

// ClosedLoopRow summarizes one application in the §III-A closed-loop model.
type ClosedLoopRow struct {
	App         string
	Size        int // block requests per period
	Requests    int
	MaxResponse float64
	DelayedPct  float64
}

// ClosedLoopResult is the outcome of the long-horizon admission scenario.
type ClosedLoopResult struct {
	Admitted  []ClosedLoopRow
	RejectedN int // applications the registry turned away
	Periods   int
}

// AblationClosedLoop runs the paper's application model (§III-A, Table I)
// over a long horizon: applications reserve a per-period request size
// against the S limit via the admission registry; admitted applications
// then issue exactly their reserved size at the start of every period.
// Because the registry caps the total at S, every period's requests are
// within the deterministic guarantee — the sustained version of the
// worked example.
func AblationClosedLoop(periods int, appSizes []int, seed int64) (*ClosedLoopResult, error) {
	sys, err := core.New(core.Config{Design: design.Paper931(), DisableFIM: true})
	if err != nil {
		return nil, err
	}
	reg, err := admission.NewRegistry(sys.S())
	if err != nil {
		return nil, err
	}
	type app struct {
		name string
		size int
		resp stats.Summary
		del  int
		n    int
	}
	var admitted []*app
	rejected := 0
	for i, size := range appSizes {
		name := string(rune('A' + i))
		if err := reg.Admit(name, size); err != nil {
			rejected++
			continue
		}
		admitted = append(admitted, &app{name: name, size: size})
	}
	rng := rand.New(rand.NewSource(seed))
	const T = 0.133
	// Partition the design's 36 bucket residues among the applications so
	// every period's requests hit distinct design buckets — the §III model
	// admits request SETS, and the guarantee is over distinct buckets.
	rows := 36
	perApp := rows / max(1, len(admitted))
	for p := 0; p < periods; p++ {
		at := float64(p) * T
		// All applications' period requests arrive together at the interval
		// start and are retrieved as one batch (§III).
		var blocks []int64
		var owner []*app
		for ai, a := range admitted {
			base := ai * perApp
			perm := rng.Perm(perApp)
			for j := 0; j < a.size; j++ {
				residue := base + perm[j]
				blocks = append(blocks, int64(residue)+36*rng.Int63n(1000))
				owner = append(owner, a)
			}
		}
		for i, out := range sys.SubmitBatch(at, blocks, nil) {
			a := owner[i]
			a.n++
			a.resp.Add(out.Response())
			if out.Delayed {
				a.del++
			}
		}
	}
	res := &ClosedLoopResult{RejectedN: rejected, Periods: periods}
	for _, a := range admitted {
		row := ClosedLoopRow{App: a.name, Size: a.size, Requests: a.n, MaxResponse: a.resp.Max()}
		if a.n > 0 {
			row.DelayedPct = 100 * float64(a.del) / float64(a.n)
		}
		res.Admitted = append(res.Admitted, row)
	}
	return res, nil
}
