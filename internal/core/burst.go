package core

import "flashqos/internal/retrieval"

// BurstReq is one request of a burst submitted via SubmitBurst.
type BurstReq struct {
	Block int64
	// Tenant is the 1-based tenant index the request carries (0 = none).
	// Callers submitting mixed-tenant bursts should present them grouped
	// by tenant (the network layer buckets by tenant exactly like it
	// buckets by shard): any order is correct, but each tenant-cap miss
	// inside an interleaved burst strands and re-reserves the grouped
	// ledger credit.
	Tenant int32
	Write  bool
}

// BurstScratch is per-caller reusable state for SubmitBurst. The zero value
// is ready to use; a nil scratch makes SubmitBurst allocate. Outcomes
// returned against a scratch are valid until its next use.
type BurstScratch struct {
	outs []Outcome
}

// outcomes returns a len-n outcome buffer, reusing the scratch when there
// is one.
func (sc *BurstScratch) outcomes(n int) []Outcome {
	if sc == nil {
		return make([]Outcome, n)
	}
	if cap(sc.outs) < n {
		sc.outs = make([]Outcome, n)
	}
	return sc.outs[:n]
}

// SubmitBurst admits a burst of requests that share one arrival timestamp
// — the network layer drains a pipelined run of frames off one socket fill
// and submits them together — in input order, with one grouped ledger
// reservation per (window, burst) and one scheduler lock round trip per
// read run instead of one of each per request. Outcomes are bit-identical
// to calling Submit/SubmitWrite per request in the same order from one
// goroutine (DESIGN.md §12); bursts from different goroutines interleave at
// request granularity, and grouped reservations shrink the room concurrent
// callers see only while the burst is in flight. With a non-nil scratch the
// call is allocation-free and the returned slice is valid until the
// scratch's next use.
func (s *System) SubmitBurst(arrival float64, reqs []BurstReq, sc *BurstScratch) []Outcome {
	outs := sc.outcomes(len(reqs))
	s.submitBurst(arrival, reqs, outs)
	return outs
}

// BatchScratch is per-caller reusable state for SubmitBatch — the joint
// §III batch path. The zero value is ready to use; a nil scratch makes
// SubmitBatch allocate. Outcomes returned against a scratch are valid
// until its next use.
type BatchScratch struct {
	outs     []Outcome
	replicas [][]int
	idx      []int
	alive    []int // flat backing for masked replica compaction
	comps    []retrieval.Completion
}

func (sc *BatchScratch) outcomes(n int) []Outcome {
	if cap(sc.outs) < n {
		sc.outs = make([]Outcome, n)
	}
	return sc.outs[:n]
}

func (sc *BatchScratch) replicaBuf(n int) [][]int {
	if cap(sc.replicas) < n {
		sc.replicas = make([][]int, n)
	}
	return sc.replicas[:n]
}

func (sc *BatchScratch) idxBuf(n int) []int {
	if cap(sc.idx) < n {
		sc.idx = make([]int, 0, n)
	}
	return sc.idx[:0]
}

// aliveBuf returns a flat device buffer with capacity for n replica lists
// of up to c devices each. Capacity is reserved up front so appends never
// reallocate and the sub-slices handed out stay valid.
func (sc *BatchScratch) aliveBuf(n, c int) []int {
	if cap(sc.alive) < n*c {
		sc.alive = make([]int, 0, n*c)
	}
	return sc.alive[:0]
}
