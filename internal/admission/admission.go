// Package admission holds the state behind the paper's admission control
// (§III-A, §III-B); the rules themselves run in the core engine, which
// reserves at most S = (c-1)M² + cM block requests per T-window
// (deterministic) or lets a window past S while the estimated probability
// Q that its requests cannot be retrieved optimally stays below ε
// (statistical). This package keeps:
//
//   - Statistical: the estimator history behind Q = Σ_k (1 - P_k)·R_k, with
//     P_k the sampled optimal-retrieval probabilities and R_k = N_k / N_t
//     the observed frequency of request-size-k intervals, and the immutable
//     Snapshot the engine decides against without a lock;
//   - the per-tenant mClock-style gate in front of the S-bound (mclock.go);
//   - Registry, the application-level worked example of Table I:
//     applications declare a per-period request size and are admitted while
//     the total stays within S.
package admission

import (
	"fmt"

	"flashqos/internal/sampling"
)

// Statistical is the interval history of the statistical admission
// controller (§III-B2). It is not thread-safe: the caller serializes
// RecordInterval and Snapshot, and shares the Snapshots.
type Statistical struct {
	S       int
	Epsilon float64
	table   *sampling.Table
	nk      []int64 // nk[k] = intervals observed with (admitted) size k
	nt      int64   // total intervals observed
}

// NewStatistical creates a statistical controller. table supplies the
// sampled P_k values; epsilon is the acceptable probability that an
// interval's admitted requests are not optimally retrievable. epsilon = 0
// reduces to deterministic behaviour.
func NewStatistical(s int, epsilon float64, table *sampling.Table) (*Statistical, error) {
	if s < 1 {
		return nil, fmt.Errorf("admission: S must be >= 1, got %d", s)
	}
	if epsilon < 0 || epsilon >= 1 {
		return nil, fmt.Errorf("admission: epsilon must be in [0,1), got %g", epsilon)
	}
	if table == nil {
		return nil, fmt.Errorf("admission: nil probability table")
	}
	return &Statistical{S: s, Epsilon: epsilon, table: table, nk: make([]int64, table.MaxK()+1)}, nil
}

// qOver computes Q = Σ_k (1-P_k)·N_k/N_t over an (nk, nt) interval history
// with a hypothetical extra interval of size k (k < 0 means none).
func qOver(table *sampling.Table, nk []int64, nt int64, k int) float64 {
	if k >= 0 {
		nt++
	}
	if nt == 0 {
		return 0
	}
	maxK := table.MaxK()
	idx := k
	if idx > maxK {
		idx = maxK
	}
	q := 0.0
	for i, n := range nk {
		cnt := n
		if i == idx && k >= 0 {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		q += (1 - table.At(i)) * float64(cnt) / float64(nt)
	}
	// A hypothetical size beyond the table still contributes via At's
	// extrapolation when k exceeds MaxK.
	if k > maxK {
		q += (1 - table.At(k)) * 1 / float64(nt)
	}
	return q
}

// RecordInterval notes that an interval completed with k admitted requests.
// Used by online replay, where interval sizes are known only once the
// interval's time window has passed. Sizes beyond the table count in its
// last bucket.
func (s *Statistical) RecordInterval(k int) {
	if k < 0 {
		panic(fmt.Sprintf("admission: negative interval size %d", k))
	}
	if k > s.table.MaxK() {
		k = s.table.MaxK()
	}
	s.nk[k]++
	s.nt++
}

// Snapshot is an immutable copy of a Statistical controller's decision
// state — the interval histogram N_k, the interval count N_t, and the P_k
// table in force — safe to share across goroutines without locks.
type Snapshot struct {
	S       int
	Epsilon float64
	table   *sampling.Table
	nk      []int64
	nt      int64
}

// Snapshot copies the controller's current decision state. The caller must
// serialize it with other controller mutations (the controller itself is
// not thread-safe); the returned Snapshot is immutable and freely shared.
func (s *Statistical) Snapshot() *Snapshot {
	nk := make([]int64, len(s.nk))
	copy(nk, s.nk)
	return &Snapshot{S: s.S, Epsilon: s.Epsilon, table: s.table, nk: nk, nt: s.nt}
}

// Q returns the violation-probability estimate frozen in the snapshot.
func (sn *Snapshot) Q() float64 { return qOver(sn.table, sn.nk, sn.nt, -1) }

// WouldAdmit reports whether an interval of size k would be admitted in
// full against the frozen history: k within S, or Q (including the
// hypothetical interval) below ε.
func (sn *Snapshot) WouldAdmit(k int) bool {
	if k <= sn.S {
		return true
	}
	return qOver(sn.table, sn.nk, sn.nt, k) < sn.Epsilon
}

// Intervals returns the number of intervals frozen in the snapshot.
func (sn *Snapshot) Intervals() int64 { return sn.nt }

// --- Application registry (worked example of Table I) ---

// Registry tracks per-application per-period request-size reservations
// against the deterministic limit S.
type Registry struct {
	S     int
	apps  map[string]int
	total int
}

// NewRegistry creates a registry with limit S.
func NewRegistry(s int) (*Registry, error) {
	if s < 1 {
		return nil, fmt.Errorf("admission: S must be >= 1, got %d", s)
	}
	return &Registry{S: s, apps: make(map[string]int)}, nil
}

// Admit registers an application reserving `size` block requests per
// period. It fails if the application already exists, size is invalid, or
// the limit would be exceeded.
func (r *Registry) Admit(name string, size int) error {
	if size < 1 {
		return fmt.Errorf("admission: application %q request size must be >= 1", name)
	}
	if _, ok := r.apps[name]; ok {
		return fmt.Errorf("admission: application %q already admitted", name)
	}
	if r.total+size > r.S {
		return fmt.Errorf("admission: rejecting %q: %d + %d exceeds limit %d", name, r.total, size, r.S)
	}
	r.apps[name] = size
	r.total += size
	return nil
}

// Leave removes an application, releasing its reservation.
func (r *Registry) Leave(name string) {
	if size, ok := r.apps[name]; ok {
		delete(r.apps, name)
		r.total -= size
	}
}

// Total returns the current total reserved request size.
func (r *Registry) Total() int { return r.total }
