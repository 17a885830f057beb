// Package retrieval implements the paper's three retrieval strategies for
// replicated buckets (§III-C, §IV-B):
//
//   - Greedy: the design-theoretic retrieval algorithm — map every block to
//     its first copy, then remap blocks off overloaded devices onto less
//     loaded replicas. O(b) per pass; optimal for request sizes within the
//     design guarantee.
//   - Optimal: the paper's combined algorithm — run Greedy, and if its cost
//     exceeds the ⌈b/N⌉ lower bound, solve the max-flow problem for the
//     exact optimum.
//   - Online: the time-based scheduler of §IV-B — retrieve each request as
//     it arrives, FCFS, choosing the replica device with the earliest
//     finish time; simultaneous arrivals are scheduled together with
//     remapping.
package retrieval

import "fmt"

// Result describes a retrieval schedule for one batch of block requests.
type Result struct {
	Accesses   int   // parallel access rounds used (max per-device load)
	Assignment []int // Assignment[i] = device retrieving block i
}

// lowerBound is the parallel I/O optimum ⌈b/n⌉.
func lowerBound(b, n int) int {
	if b <= 0 {
		return 0
	}
	return (b + n - 1) / n
}

// greedyRun is the greedy move loop over caller-provided scratch: assign
// (len b) receives the block→device mapping, load (len n, zeroed) the
// per-device block counts, and cnt (len b+1, zeroed) a histogram of loads
// used to maintain the running maximum incrementally — a move shifts one
// block between two devices, so the maximum drops by exactly one precisely
// when the source device was the last one at the old maximum. Returns the
// final maximum load (the access count).
func greedyRun(replicas [][]int, n int, assign, load, cnt []int) int {
	b := len(replicas)
	for i, devs := range replicas {
		if len(devs) == 0 {
			panic(fmt.Sprintf("retrieval: block %d has no replicas", i))
		}
		assign[i] = devs[0]
		load[devs[0]]++
	}
	maxLoad := 0
	for _, l := range load {
		cnt[l]++
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
			// Move block i to its least-loaded replica if strictly better.
			best := cur
			for _, d := range devs {
				if load[d] < load[best] {
					best = d
				}
			}
			if best != cur && load[best] < m {
				cnt[load[cur]]--
				if load[cur] == maxLoad && cnt[maxLoad] == 0 {
					maxLoad--
				}
				load[cur]--
				cnt[load[cur]]++
				cnt[load[best]]--
				load[best]++
				cnt[load[best]]++
				assign[i] = best
				moved = true
			}
		}
		if !moved {
			m++
		}
	}
	return maxLoad
}

// Optimal implements the paper's combined retrieval: design-theoretic
// greedy first (O(b)); if its access count exceeds the ⌈b/N⌉ optimum, fall
// back to the max-flow solver for the exact minimum (O(b³) worst case).
// The returned schedule always uses the true minimal number of accesses.
//
// This is a convenience wrapper that builds a throwaway Scheduler per
// call; hot paths should hold a Scheduler (one per goroutine) and call
// Scheduler.Optimal to avoid the per-call allocations.
func Optimal(replicas [][]int, n int) Result {
	return NewScheduler().Optimal(replicas, n)
}

// SequentialAccesses returns the access count produced by assigning each
// block, in arrival order, to its currently least-loaded replica device —
// the load shape of the online algorithm when requests arrive one by one
// with no lookahead. Used for the Table II DTR/OLR comparison.
func SequentialAccesses(replicas [][]int, n int) int {
	load := make([]int, n)
	maxLoad := 0
	for _, devs := range replicas {
		best := devs[0]
		for _, d := range devs {
			if load[d] < load[best] {
				best = d
			}
		}
		load[best]++
		if load[best] > maxLoad {
			maxLoad = load[best]
		}
	}
	return maxLoad
}

// Completion describes the scheduled execution of one request by the online
// scheduler.
type Completion struct {
	Device int
	Start  float64 // service start time
	Finish float64 // service completion time
}

// Online is the time-based online retrieval scheduler (paper §IV-B):
// requests are served FCFS as they arrive; a request is placed on an idle
// replica device if one exists, otherwise on the replica device with the
// earliest finish time. Requests arriving at exactly the same instant
// should be submitted together via SubmitBatch, which computes an optimal
// joint assignment (with remapping) before scheduling.
type Online struct {
	service float64 // per-block service time (e.g. 0.132507 ms)
	n       int
	dev     []onlineDev // interleaved per-device state: one cache line per submit
	engine  *Scheduler  // reusable batch-assignment engine
}

// onlineDev keeps a device's scheduling state on one cache line so the
// submit hot path (read next-free, write next-free + busy) touches a
// single line per device instead of one per parallel slice.
type onlineDev struct {
	nextFree float64
	busy     float64 // cumulative service time
}

// NewOnline creates an online scheduler for n devices with the given
// per-block service time.
func NewOnline(n int, service float64) *Online {
	if n < 1 || service <= 0 {
		panic(fmt.Sprintf("retrieval: invalid online scheduler (n=%d, service=%g)", n, service))
	}
	return &Online{service: service, n: n, dev: make([]onlineDev, n), engine: NewScheduler()}
}

// Devices returns the device count.
func (o *Online) Devices() int { return o.n }

// NextFree returns the time device d becomes idle.
func (o *Online) NextFree(d int) float64 { return o.dev[d].nextFree }

// Utilization returns the mean busy fraction of all devices over [0, until].
func (o *Online) Utilization(until float64) float64 {
	if until <= 0 {
		return 0
	}
	var total float64
	for i := range o.dev {
		total += o.dev[i].busy
	}
	return total / (float64(o.n) * until)
}

// Submit schedules a single request arriving at time t with the given
// replica devices. An idle device is preferred; otherwise the device with
// the earliest finish time is used.
func (o *Online) Submit(t float64, replicas []int) Completion {
	return o.SubmitFor(t, replicas, o.service)
}

// SubmitFor schedules like Submit with an explicit service duration —
// used for operations other than the standard block read (e.g. writes).
func (o *Online) SubmitFor(t float64, replicas []int, service float64) Completion {
	if len(replicas) == 0 {
		panic("retrieval: request with no replicas")
	}
	if service <= 0 {
		panic(fmt.Sprintf("retrieval: non-positive service %g", service))
	}
	best := replicas[0]
	bestStart := o.startTime(t, best)
	for _, d := range replicas[1:] {
		if s := o.startTime(t, d); s < bestStart {
			best, bestStart = d, s
		}
	}
	finish := bestStart + service
	o.dev[best].nextFree = finish
	o.dev[best].busy += service
	return Completion{Device: best, Start: bestStart, Finish: finish}
}

// SubmitMasked schedules a request on the best replica inside the
// availability mask — the degraded-mode twin of Submit, used when the
// health subsystem has removed devices from service. ok is false (and
// nothing is scheduled) when every replica is masked out. Allocation-free.
func (o *Online) SubmitMasked(t float64, replicas []int, mask uint64) (Completion, bool) {
	return o.SubmitMaskedFor(t, replicas, mask, o.service)
}

// SubmitMaskedFor is SubmitMasked with an explicit service duration.
func (o *Online) SubmitMaskedFor(t float64, replicas []int, mask uint64, service float64) (Completion, bool) {
	if service <= 0 {
		panic(fmt.Sprintf("retrieval: non-positive service %g", service))
	}
	best := -1
	var bestStart float64
	for _, d := range replicas {
		if mask&(1<<uint(d)) == 0 {
			continue
		}
		if s := o.startTime(t, d); best < 0 || s < bestStart {
			best, bestStart = d, s
		}
	}
	if best < 0 {
		return Completion{}, false
	}
	finish := bestStart + service
	o.dev[best].nextFree = finish
	o.dev[best].busy += service
	return Completion{Device: best, Start: bestStart, Finish: finish}, true
}

func (o *Online) startTime(t float64, d int) float64 {
	if nf := o.dev[d].nextFree; nf > t {
		return nf
	}
	return t
}

// SubmitBatch schedules requests that arrive at exactly the same time t.
// The joint assignment is computed with the combined optimal retrieval
// (greedy + max-flow remapping), then each request is placed on its
// assigned device behind that device's current queue.
func (o *Online) SubmitBatch(t float64, replicas [][]int) []Completion {
	if len(replicas) == 0 {
		return nil
	}
	return o.SubmitBatchInto(t, replicas, make([]Completion, len(replicas)))
}

// SubmitBatchInto is SubmitBatch writing into caller-provided scratch: out
// is grown as needed and returned re-sliced to len(replicas), so steady-
// state reuse is allocation-free. Schedules and results are identical to
// SubmitBatch.
func (o *Online) SubmitBatchInto(t float64, replicas [][]int, out []Completion) []Completion {
	if cap(out) < len(replicas) {
		out = make([]Completion, len(replicas))
	}
	out = out[:len(replicas)]
	if len(replicas) == 0 {
		return out
	}
	if len(replicas) == 1 {
		out[0] = o.Submit(t, replicas[0])
		return out
	}
	res := o.engine.Optimal(replicas, o.n)
	for i, d := range res.Assignment {
		start := o.startTime(t, d)
		finish := start + o.service
		o.dev[d].nextFree = finish
		o.dev[d].busy += o.service
		out[i] = Completion{Device: d, Start: start, Finish: finish}
	}
	return out
}

// IntervalBatch schedules a batch the way the interval-based design-
// theoretic retrieval does (§IV-B theoretical comparison): requests
// received during interval [t0, t0+T) are aligned to the start of the next
// interval t0+T and retrieved there with the optimal joint assignment.
// Returns the completions relative to the aligned start time.
func (o *Online) IntervalBatch(alignedStart float64, replicas [][]int) []Completion {
	if len(replicas) == 0 {
		return nil
	}
	res := o.engine.Optimal(replicas, o.n)
	out := make([]Completion, len(replicas))
	for i, d := range res.Assignment {
		start := o.startTime(alignedStart, d)
		finish := start + o.service
		o.dev[d].nextFree = finish
		o.dev[d].busy += o.service
		out[i] = Completion{Device: d, Start: start, Finish: finish}
	}
	return out
}
