package design

import "fmt"

// Paper931 returns the exact (9,3,1) design printed in Fig 2 of the paper.
// Each block lists the devices storing the three copies of the buckets
// assigned to it. The design is (an isomorph of) the affine plane AG(2,3).
func Paper931() *Design {
	blocks := [][]int{
		{0, 1, 2}, {0, 3, 6}, {0, 4, 8}, {0, 5, 7},
		{1, 3, 8}, {1, 4, 7}, {1, 5, 6},
		{2, 3, 7}, {2, 4, 6}, {2, 5, 8},
		{3, 4, 5}, {6, 7, 8},
	}
	return &Design{N: 9, C: 3, Lambda: 1, Blocks: blocks, Name: "paper (9,3,1)"}
}

// Paper1331 returns a (13,3,1) design — the design the paper uses for the
// 13-volume TPC-E experiments — built from the classical difference family
// {0,1,4}, {0,2,7} over Z13.
func Paper1331() *Design {
	bases := [][3]int{{0, 1, 4}, {0, 2, 7}}
	var blocks [][]int
	for _, b := range bases {
		for s := 0; s < 13; s++ {
			blocks = append(blocks, []int{(b[0] + s) % 13, (b[1] + s) % 13, (b[2] + s) % 13})
		}
	}
	return &Design{N: 13, C: 3, Lambda: 1, Blocks: blocks, Name: "difference family (13,3,1)"}
}

// ForParams returns an (N, c, 1) design for the requested device count N and
// copy count c, choosing among the supported constructions:
//
//   - c == 3: Steiner triple systems (N ≡ 1 or 3 mod 6).
//   - N == c²: affine plane AG(2, c) for prime-power c.
//   - N == c²-c+1 with c-1 a prime power: projective plane PG(2, c-1).
//
// It returns ErrNoConstruction when no supported construction matches.
func ForParams(n, c int) (*Design, error) {
	if c == 3 {
		if n == 9 {
			return Paper931(), nil
		}
		if n == 13 {
			return Paper1331(), nil
		}
		if d, err := STS(n); err == nil {
			return d, nil
		}
	}
	if n == c*c {
		if d, err := AffinePlane(c); err == nil {
			return d, nil
		}
	}
	if q := c - 1; q >= 2 && n == q*q+q+1 {
		if d, err := ProjectivePlane(q); err == nil {
			return d, nil
		}
	}
	// General fallback: cyclic designs from difference families (covers
	// e.g. (37,4,1), (41,5,1) that no plane provides).
	if c >= 3 && (n-1)%(c*(c-1)) == 0 {
		if d, err := CyclicDesign(n, c); err == nil {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w: N=%d c=%d", ErrNoConstruction, n, c)
}
