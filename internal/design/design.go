// Package design constructs and verifies (N, c, λ) combinatorial block
// designs used for replicated declustering (Altiparmak & Tosun, CLUSTER
// 2012, §II-B). A design on N points with block size c and index λ=1 has the
// property that every unordered pair of points appears together in exactly
// one block. Storing the c replicas of a bucket on the devices named by a
// design block guarantees that any S(M) = (c-1)M² + cM buckets can be
// retrieved in M parallel accesses.
//
// Provided constructions:
//
//   - Paper931: the explicit (9,3,1) design printed in the paper (Fig 2),
//     which is the affine plane AG(2,3).
//   - BoseSTS: Steiner triple systems STS(v) for v ≡ 3 (mod 6).
//   - HeffterSTS: cyclic Steiner triple systems for v ≡ 1 (mod 6) via
//     difference families found by Heffter-triple backtracking.
//   - AffinePlane: (q², q, 1) designs for prime powers q.
//   - ProjectivePlane: (q²+q+1, q+1, 1) designs for prime powers q.
//
// Rotations of the design blocks expand a design with b blocks into
// b·c = N(N-1)/(c-1) distinct replica placements ("allocation rows"), the
// bucket capacity the paper quotes for (9,3,1): 9·8/2 = 36.
package design

import (
	"errors"
	"fmt"
)

// Design is an (N, c, λ) block design: N points (devices), blocks of size C,
// every pair of points in exactly Lambda blocks. The paper uses λ = 1
// exclusively; constructions in this package produce λ = 1 designs.
type Design struct {
	N      int     // number of points (devices)
	C      int     // block size (replica count)
	Lambda int     // pair multiplicity
	Blocks [][]int // each block lists C distinct points in [0, N)
	Name   string  // human-readable construction name
}

// ErrNoConstruction is returned when no supported construction exists for
// the requested parameters.
var ErrNoConstruction = errors.New("design: no known construction for parameters")

// String implements fmt.Stringer.
func (d *Design) String() string {
	return fmt.Sprintf("(%d,%d,%d) design [%s], %d blocks", d.N, d.C, d.Lambda, d.Name, len(d.Blocks))
}

// Verify checks the design axioms: every block has C distinct in-range
// points, and every unordered pair of points appears in exactly Lambda
// blocks. It returns a descriptive error on the first violation.
func (d *Design) Verify() error {
	if d.N < 2 || d.C < 2 || d.C > d.N || d.Lambda < 1 {
		return fmt.Errorf("design: invalid parameters (%d,%d,%d)", d.N, d.C, d.Lambda)
	}
	pairCount := make(map[[2]int]int)
	for bi, blk := range d.Blocks {
		if len(blk) != d.C {
			return fmt.Errorf("design: block %d has size %d, want %d", bi, len(blk), d.C)
		}
		seen := make(map[int]bool, d.C)
		for _, p := range blk {
			if p < 0 || p >= d.N {
				return fmt.Errorf("design: block %d contains out-of-range point %d", bi, p)
			}
			if seen[p] {
				return fmt.Errorf("design: block %d repeats point %d", bi, p)
			}
			seen[p] = true
		}
		for i := 0; i < len(blk); i++ {
			for j := i + 1; j < len(blk); j++ {
				a, b := blk[i], blk[j]
				if a > b {
					a, b = b, a
				}
				pairCount[[2]int{a, b}]++
			}
		}
	}
	for a := 0; a < d.N; a++ {
		for b := a + 1; b < d.N; b++ {
			if got := pairCount[[2]int{a, b}]; got != d.Lambda {
				return fmt.Errorf("design: pair (%d,%d) appears %d times, want %d", a, b, got, d.Lambda)
			}
		}
	}
	// Block-count sanity: b = λ·N(N-1) / (c(c-1)).
	want := d.Lambda * d.N * (d.N - 1) / (d.C * (d.C - 1))
	if len(d.Blocks) != want {
		return fmt.Errorf("design: %d blocks, want %d", len(d.Blocks), want)
	}
	return nil
}

// S returns the number of buckets guaranteed retrievable in M parallel
// accesses under design-theoretic allocation: S(M) = (c-1)·M² + c·M
// (paper §II-B2).
func (d *Design) S(M int) int {
	return SFor(d.C, M)
}

// SFor evaluates the guarantee polynomial S(M) = (c-1)·M² + c·M for an
// arbitrary replica count c. Beyond the design's own c it also prices the
// degraded guarantee: with f failed devices every bucket keeps at least
// c-f replicas and any pair of devices still shares at most λ buckets, so
// the same counting argument bounds the retrievable set by SFor(c-f, M).
// c <= 0 or M < 0 yields 0 (no guarantee can be made).
func SFor(c, M int) int {
	if c <= 0 || M < 0 {
		return 0
	}
	return (c-1)*M*M + c*M
}

// AccessesFor returns the smallest M such that S(M) >= b, i.e. the
// guaranteed worst-case number of parallel accesses for b buckets. b <= 0
// yields 0.
func (d *Design) AccessesFor(b int) int {
	if b <= 0 {
		return 0
	}
	m := 0
	for d.S(m) < b {
		m++
	}
	return m
}

// MaxBuckets returns the number of distinct buckets supported when rotations
// of the design blocks are used: N(N-1)/(c-1) for λ=1 (paper §II-B4).
func (d *Design) MaxBuckets() int {
	return d.Lambda * d.N * (d.N - 1) / (d.C - 1)
}

// Rotations expands the design blocks into allocation rows. Row r of the
// result lists, in copy order, the devices storing bucket r: the first copy
// of bucket r lives on row[0], the second on row[1], and so on. Each design
// block (d0, d1, ..., d_{c-1}) yields c rows — the block itself and its
// cyclic rotations — so the result has len(Blocks)·C == MaxBuckets() rows.
//
// Rows are ordered rotation-major, matching the paper's Fig 7: buckets
// 0..b-1 are the b design blocks themselves (all with distinct device
// sets), buckets b..2b-1 their first rotations, and so on. Consecutive
// small bucket pools therefore spread over distinct device sets.
func (d *Design) Rotations() [][]int {
	rows := make([][]int, 0, len(d.Blocks)*d.C)
	for r := 0; r < d.C; r++ {
		for _, blk := range d.Blocks {
			row := make([]int, d.C)
			for i := 0; i < d.C; i++ {
				row[i] = blk[(i+r)%d.C]
			}
			rows = append(rows, row)
		}
	}
	return rows
}
