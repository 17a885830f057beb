// Package stats provides the summary statistics used throughout the
// evaluation harness: streaming mean/variance/extrema (Welford's algorithm)
// for the paper's avg/std/max table rows, and percentiles.
package stats

import (
	"math"
	"sort"
)

// Summary accumulates streaming summary statistics without storing samples.
// The zero value is ready to use.
type Summary struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasSamples bool
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.hasSamples || x < s.min {
		s.min = x
	}
	if !s.hasSamples || x > s.max {
		s.max = x
	}
	s.hasSamples = true
}

// N returns the sample count.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the population variance (0 for n < 2).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Percentile returns the p-th percentile (0 <= p <= 100) of the data using
// linear interpolation between closest ranks. The input is sorted in place.
func Percentile(data []float64, p float64) float64 {
	if len(data) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sort.Float64s(data)
	if len(data) == 1 {
		return data[0]
	}
	rank := p / 100 * float64(len(data)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return data[lo]
	}
	frac := rank - float64(lo)
	return data[lo]*(1-frac) + data[hi]*frac
}
