// Package sampling estimates the optimal-retrieval probabilities P_k used
// by the statistical QoS admission controller (paper §III-B1, Fig 4). For a
// given allocation scheme, P_k is the probability that k blocks drawn
// uniformly at random from the bucket pool — with replacement, matching the
// paper's "the same design block is allowed to be chosen multiple times for
// fair results" — can be retrieved in the optimal ⌈k/N⌉ parallel accesses.
//
// Estimation is embarrassingly parallel; trials are sharded round-robin
// across a fixed number of deterministic RNG streams, each sampled in its
// own goroutine, so a table is a function of its Options alone and not of
// the host's core count.
package sampling

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"flashqos/internal/decluster"
	"flashqos/internal/maxflow"
)

// Table holds estimated optimal-retrieval probabilities for request sizes
// 1..MaxK. P[0] is defined as 1 (an empty request is trivially optimal).
type Table struct {
	N      int       // device count of the sampled scheme
	Trials int       // trials per request size
	P      []float64 // P[k], k in [0, MaxK]
}

// MaxK returns the largest request size in the table.
func (t *Table) MaxK() int { return len(t.P) - 1 }

// At returns P_k, using 1.0 for k == 0 and extrapolating with the last
// known value for k beyond the table. (For k well beyond N the probability
// converges to 1; callers should size the table past the convergence
// point.)
func (t *Table) At(k int) float64 {
	if k <= 0 {
		return 1
	}
	if k < len(t.P) {
		return t.P[k]
	}
	return t.P[len(t.P)-1]
}

// Options configure the estimator. Seed and Trials fix the table: the same
// Options give the same P on every host.
type Options struct {
	MaxK   int   // largest request size to sample (required, >= 1)
	Trials int   // Monte-Carlo trials per size (default 20000)
	Seed   int64 // base RNG seed (default 1)
}

// streams is the number of RNG streams trials are sharded across. Stream s
// is seeded Seed + s·7919 and takes trials s, s+streams, s+2·streams, ...
const streams = 4

// Estimate computes the optimal-retrieval probability table for an
// allocation scheme.
func Estimate(a decluster.Allocator, opt Options) (*Table, error) {
	if opt.MaxK < 1 {
		return nil, fmt.Errorf("sampling: MaxK must be >= 1, got %d", opt.MaxK)
	}
	if opt.Trials <= 0 {
		opt.Trials = 20000
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	n := a.Devices()
	rows := a.Rows()

	counts := make([]int64, opt.MaxK+1) // optimal outcomes per k
	var mu sync.Mutex
	var wg sync.WaitGroup
	for st := 0; st < streams; st++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.Seed + int64(stream)*7919))
			local := make([]int64, opt.MaxK+1)
			replicas := make([][]int, 0, opt.MaxK)
			// Each stream owns a Solver (single-goroutine reuse contract),
			// so the Monte-Carlo loop rewrites one preallocated feasibility
			// network per trial instead of building a fresh graph: zero
			// allocations per trial in the steady state.
			solver := maxflow.NewSolver(opt.MaxK, n)
			for k := 1; k <= opt.MaxK; k++ {
				for trial := stream; trial < opt.Trials; trial += streams {
					replicas = replicas[:0]
					for i := 0; i < k; i++ {
						replicas = append(replicas, a.Replicas(rng.Intn(rows)))
					}
					lb := (k + n - 1) / n
					if _, ok := solver.Feasible(replicas, n, lb); ok {
						local[k]++
					}
				}
			}
			mu.Lock()
			for k := range counts {
				counts[k] += local[k]
			}
			mu.Unlock()
		}(st)
	}
	wg.Wait()

	p := make([]float64, opt.MaxK+1)
	p[0] = 1
	for k := 1; k <= opt.MaxK; k++ {
		p[k] = float64(counts[k]) / float64(opt.Trials)
	}
	return &Table{N: n, Trials: opt.Trials, P: p}, nil
}

// Save serializes the table as JSON, so the offline Monte-Carlo pass can
// be cached across runs (the paper computes P_k once per design).
func (t *Table) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Load reads a table saved by Save.
func Load(r io.Reader) (*Table, error) {
	var t Table
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("sampling: %w", err)
	}
	if len(t.P) == 0 || t.N < 1 {
		return nil, fmt.Errorf("sampling: loaded table is empty or invalid")
	}
	for _, p := range t.P {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("sampling: loaded probability %g out of range", p)
		}
	}
	return &t, nil
}
