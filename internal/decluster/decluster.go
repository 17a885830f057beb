// Package decluster implements replicated declustering schemes: strategies
// for placing c copies of each bucket on N storage devices (paper §II-B2).
// All schemes implement the Allocator interface; the design-theoretic
// allocator is the paper's choice, the others (RAID-1 mirrored, RAID-1
// chained, random duplicate allocation, partitioned, dependent periodic,
// orthogonal) are the baselines it is compared against.
//
// An allocator exposes a finite number of distinct placement rows; buckets
// beyond that wrap modulo Rows(), mirroring the paper's use of a 36-bucket
// pool for the (9,3,1) design and its baselines (§V-C1, Fig 7).
package decluster

import (
	"fmt"
	"math/rand"

	"flashqos/internal/design"
)

// Allocator maps buckets to the ordered list of devices storing their
// replicas. Index 0 of a replica list is the primary (first) copy.
type Allocator interface {
	// Name identifies the scheme.
	Name() string
	// Devices returns N, the number of devices.
	Devices() int
	// Copies returns c, the replication factor.
	Copies() int
	// Rows returns the number of distinct placement rows; Replicas(b) equals
	// Replicas(b % Rows()).
	Rows() int
	// Replicas returns the devices storing bucket b, in copy order. The
	// returned slice must not be modified.
	Replicas(bucket int) []int
}

// tableAllocator is the common finite-table implementation.
type tableAllocator struct {
	name string
	n, c int
	rows [][]int
}

func (t *tableAllocator) Name() string { return t.name }
func (t *tableAllocator) Devices() int { return t.n }
func (t *tableAllocator) Copies() int  { return t.c }
func (t *tableAllocator) Rows() int    { return len(t.rows) }
func (t *tableAllocator) Replicas(b int) []int {
	// In-range buckets (the common case: mappers emit design blocks that
	// are already row indices) skip the wrapping division.
	if uint(b) < uint(len(t.rows)) {
		return t.rows[b]
	}
	if b < 0 {
		panic(fmt.Sprintf("decluster: negative bucket %d", b))
	}
	return t.rows[b%len(t.rows)]
}

// DesignTheoretic allocates buckets using the rotations of an (N, c, 1)
// design's blocks (paper §II-B3/B4). It guarantees that any
// S(M) = (c-1)M²+cM buckets are retrievable in M accesses.
type DesignTheoretic struct {
	tableAllocator
	d *design.Design
}

// NewDesignTheoretic builds the allocator from a verified design.
func NewDesignTheoretic(d *design.Design) (*DesignTheoretic, error) {
	if err := d.Verify(); err != nil {
		return nil, fmt.Errorf("decluster: %w", err)
	}
	return &DesignTheoretic{
		tableAllocator: tableAllocator{
			name: fmt.Sprintf("design-theoretic (%d,%d,%d)", d.N, d.C, d.Lambda),
			n:    d.N, c: d.C,
			rows: d.Rotations(),
		},
		d: d,
	}, nil
}

// Design returns the underlying block design.
func (a *DesignTheoretic) Design() *design.Design { return a.d }

// NewRAID1Mirrored builds the RAID-1 mirrored baseline (paper Fig 7): the N
// devices form N/c groups of c devices that mirror each other; bucket b is
// stored on group b mod (N/c). Successive wraps of the bucket space rotate
// the copy order so reads spread across the mirrors. N must be divisible
// by c.
func NewRAID1Mirrored(n, c int) (Allocator, error) {
	if c < 2 || n < c || n%c != 0 {
		return nil, fmt.Errorf("decluster: RAID-1 mirrored needs n divisible by c, got n=%d c=%d", n, c)
	}
	groups := n / c
	rows := make([][]int, 0, groups*c)
	for r := 0; r < c; r++ { // rotation of copy order
		for g := 0; g < groups; g++ {
			row := make([]int, c)
			for j := 0; j < c; j++ {
				row[j] = g*c + (j+r)%c
			}
			rows = append(rows, row)
		}
	}
	return &tableAllocator{name: "RAID-1 mirrored", n: n, c: c, rows: rows}, nil
}

// NewRAID1Chained builds the RAID-1 chained baseline (paper Fig 7): the
// primary copy of bucket b lives on device b mod N and copies j on
// (b + j) mod N. Wraps of the bucket space rotate the copy order, matching
// the paper's use of rotations to support 36 buckets.
func NewRAID1Chained(n, c int) (Allocator, error) {
	if c < 2 || n < c {
		return nil, fmt.Errorf("decluster: RAID-1 chained needs n >= c >= 2, got n=%d c=%d", n, c)
	}
	rows := make([][]int, 0, n*c)
	for r := 0; r < c; r++ {
		for d0 := 0; d0 < n; d0++ {
			row := make([]int, c)
			for j := 0; j < c; j++ {
				row[j] = (d0 + (j+r)%c) % n
			}
			rows = append(rows, row)
		}
	}
	return &tableAllocator{name: "RAID-1 chained", n: n, c: c, rows: rows}, nil
}

// NewRDA builds a random duplicate allocation (Sanders et al.): each of the
// `buckets` rows picks c distinct devices uniformly at random. RDA is within
// one of optimal with high probability but offers no deterministic
// guarantee (paper §II-B2). The seed makes placements reproducible.
func NewRDA(n, c, buckets int, seed int64) (Allocator, error) {
	if c < 1 || n < c || buckets < 1 {
		return nil, fmt.Errorf("decluster: RDA needs n >= c >= 1, buckets >= 1; got n=%d c=%d buckets=%d", n, c, buckets)
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int, buckets)
	for b := range rows {
		perm := rng.Perm(n)
		row := make([]int, c)
		copy(row, perm[:c])
		rows[b] = row
	}
	return &tableAllocator{name: "RDA", n: n, c: c, rows: rows}, nil
}

// NewPartitioned builds partitioned replication (Ferhatosmanoglu et al.):
// devices are split into n/c groups of size c; the primary copy of bucket b
// is on device b mod n and the remaining copies cycle within the primary's
// group. Unlike RAID-1 mirrored, primaries round-robin over all devices.
// N must be divisible by c.
func NewPartitioned(n, c int) (Allocator, error) {
	if c < 2 || n < c || n%c != 0 {
		return nil, fmt.Errorf("decluster: partitioned needs n divisible by c, got n=%d c=%d", n, c)
	}
	rows := make([][]int, n)
	for b := 0; b < n; b++ {
		base := (b / c) * c
		row := make([]int, c)
		for j := 0; j < c; j++ {
			row[j] = base + (b-base+j)%c
		}
		rows[b] = row
	}
	return &tableAllocator{name: "partitioned", n: n, c: c, rows: rows}, nil
}

// NewDependentPeriodic builds dependent periodic allocation (Tosun &
// Ferhatosmanoglu): copy j of bucket b is stored on (b + j·shift) mod N.
// shift=1 degenerates to an unrotated RAID-1 chain; larger shifts spread
// replicas. Good for range/connected queries, weaker for arbitrary ones.
func NewDependentPeriodic(n, c, shift int) (Allocator, error) {
	if c < 2 || n < c || shift < 1 {
		return nil, fmt.Errorf("decluster: dependent periodic needs n >= c >= 2, shift >= 1; got n=%d c=%d shift=%d", n, c, shift)
	}
	// All c replica devices must be distinct: j*shift mod n distinct for j in [0,c).
	seen := make(map[int]bool, c)
	for j := 0; j < c; j++ {
		o := j * shift % n
		if seen[o] {
			return nil, fmt.Errorf("decluster: shift %d collides replicas for n=%d c=%d", shift, n, c)
		}
		seen[o] = true
	}
	rows := make([][]int, n)
	for b := 0; b < n; b++ {
		row := make([]int, c)
		for j := 0; j < c; j++ {
			row[j] = (b + j*shift) % n
		}
		rows[b] = row
	}
	return &tableAllocator{name: fmt.Sprintf("dependent periodic (shift %d)", shift), n: n, c: c, rows: rows}, nil
}

// orthogonalAllocator implements 2-copy orthogonal allocation: every
// unordered device pair hosts at most one bucket, which guarantees
// retrieval of any b buckets in at most ⌈√b⌉ accesses (paper §II-B2).
type orthogonalAllocator struct {
	tableAllocator
}

// NewOrthogonal builds a 2-copy orthogonal allocation on n devices: bucket k
// is assigned the k-th unordered device pair in a balanced enumeration that
// cycles pair distances, so consecutive buckets use disjoint devices where
// possible. Supports n(n-1)/2 distinct buckets.
func NewOrthogonal(n int) (Allocator, error) {
	if n < 2 {
		return nil, fmt.Errorf("decluster: orthogonal needs n >= 2, got %d", n)
	}
	// Enumerate pairs grouped by circular distance d = 1..n/2; within each
	// distance, walk the ring. For even n, distance n/2 yields only n/2
	// distinct pairs.
	var rows [][]int
	seen := make(map[[2]int]bool)
	for d := 1; d <= n/2; d++ {
		for a := 0; a < n; a++ {
			b := (a + d) % n
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			key := [2]int{lo, hi}
			if seen[key] {
				continue
			}
			seen[key] = true
			rows = append(rows, []int{a, b})
		}
	}
	return &orthogonalAllocator{tableAllocator{name: "orthogonal", n: n, c: 2, rows: rows}}, nil
}
