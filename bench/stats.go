package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported percentile
// for it to be worth printing: with fewer, one slow request moves it.
const tailMinBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// nearest rank, or 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tail is quantile for the upper percentiles, clamped to the highest rank
// that still has tailMinBeyond samples beyond it, so a p99.9 asked of a
// few thousand samples degrades to the percentile the sample supports
// instead of reporting its maximum. supported reports whether q itself
// was honoured.
func tail(sorted []float64, q float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if limit := n - 1 - tailMinBeyond; i > limit {
		if limit < 0 {
			limit = 0
		}
		return sorted[limit], false
	}
	if i < 0 {
		i = 0
	}
	return sorted[i], true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sample is one paced-phase request as the load generator saw it. Times
// are nanoseconds on the run's monotonic clock; done == 0 means no reply
// arrived (lost).
type sample struct {
	due, send, done int64
	write           bool
	ok              bool    // answered, admitted, payload verified
	pricedMS        float64 // DelayMS + RespMS of the reply, 0 when refused
}

// onTimeFrac is the share of attempted requests of one kind that were
// answered correctly within limitNS of their due time. A request that
// failed, was refused or got no reply is a miss; the denominator is every
// request attempted, not every request answered.
func onTimeFrac(ss []sample, write bool, limitNS int64) (frac float64, attempted int) {
	hit := 0
	for i := range ss {
		s := &ss[i]
		if s.write != write {
			continue
		}
		attempted++
		if s.ok && s.done != 0 && s.done-s.due <= limitNS {
			hit++
		}
	}
	if attempted == 0 {
		return 0, 0
	}
	return float64(hit) / float64(attempted), attempted
}

// latenciesUS collects done−from for answered requests of one kind, in
// microseconds, ascending. fromDue selects the open-loop latency (from the
// due time) over the service time (from the send).
func latenciesUS(ss []sample, write, fromDue bool) []float64 {
	var out []float64
	for i := range ss {
		s := &ss[i]
		if s.write != write || s.done == 0 {
			continue
		}
		from := s.send
		if fromDue {
			from = s.due
		}
		out = append(out, float64(s.done-from)/1e3)
	}
	sort.Float64s(out)
	return out
}

// latenessUS is send−due for every request, ascending: how late the
// generator itself ran, which bounds the validity of every latency above.
func latenessUS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for i := range ss {
		out = append(out, float64(ss[i].send-ss[i].due)/1e3)
	}
	sort.Float64s(out)
	return out
}
