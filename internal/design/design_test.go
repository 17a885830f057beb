package design

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustVerify(t *testing.T, d *Design, err error) *Design {
	t.Helper()
	if err != nil {
		t.Fatalf("construction failed: %v", err)
	}
	if verr := d.Verify(); verr != nil {
		t.Fatalf("%s fails verification: %v", d, verr)
	}
	return d
}

func TestPaper931Valid(t *testing.T) {
	d := Paper931()
	if err := d.Verify(); err != nil {
		t.Fatalf("paper (9,3,1) design invalid: %v", err)
	}
	if len(d.Blocks) != 12 {
		t.Errorf("paper design has %d blocks, want 12", len(d.Blocks))
	}
	if d.MaxBuckets() != 36 {
		t.Errorf("MaxBuckets = %d, want 36 (paper §II-B4)", d.MaxBuckets())
	}
}

func TestPaper931MatchesFig2(t *testing.T) {
	// Fig 2 columns, exactly as printed in the paper.
	fig2 := [][]int{
		{0, 1, 2}, {0, 3, 6}, {0, 4, 8}, {0, 5, 7},
		{1, 3, 8}, {1, 4, 7}, {1, 5, 6},
		{2, 3, 7}, {2, 4, 6}, {2, 5, 8},
		{3, 4, 5}, {6, 7, 8},
	}
	d := Paper931()
	other := &Design{N: 9, C: 3, Lambda: 1, Blocks: fig2}
	if !Equivalent(d, other) {
		t.Error("Paper931 does not match Fig 2 blocks")
	}
}

func TestPaper1331Valid(t *testing.T) {
	d := Paper1331()
	if err := d.Verify(); err != nil {
		t.Fatalf("(13,3,1) design invalid: %v", err)
	}
	if len(d.Blocks) != 26 {
		t.Errorf("(13,3,1) has %d blocks, want 26", len(d.Blocks))
	}
	if d.MaxBuckets() != 78 {
		t.Errorf("MaxBuckets = %d, want 13*12/2 = 78", d.MaxBuckets())
	}
}

func TestGuaranteeS(t *testing.T) {
	d := Paper931()
	// Paper §III-A and §V-C: S(1)=5, S(2)=14, S(3)=27 for c=3.
	cases := map[int]int{0: 0, 1: 5, 2: 14, 3: 27}
	for m, want := range cases {
		if got := d.S(m); got != want {
			t.Errorf("S(%d) = %d, want %d", m, got, want)
		}
	}
	// §II-B3: for c=2 design-theoretic retrieves 3 in 1, 8 in 2, 15 in 3.
	d2 := &Design{N: 7, C: 2, Lambda: 1}
	for m, want := range map[int]int{1: 3, 2: 8, 3: 15} {
		if got := d2.S(m); got != want {
			t.Errorf("c=2: S(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestAccessesFor(t *testing.T) {
	d := Paper931()
	cases := map[int]int{0: 0, 1: 1, 5: 1, 6: 2, 14: 2, 15: 3, 27: 3, 28: 4}
	for b, want := range cases {
		if got := d.AccessesFor(b); got != want {
			t.Errorf("AccessesFor(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestBoseSTS(t *testing.T) {
	for _, v := range []int{3, 9, 15, 21, 27, 33, 45} {
		d, err := BoseSTS(v)
		mustVerify(t, d, err)
		if len(d.Blocks) != v*(v-1)/6 {
			t.Errorf("STS(%d): %d blocks, want %d", v, len(d.Blocks), v*(v-1)/6)
		}
	}
}

func TestBoseSTSRejects(t *testing.T) {
	for _, v := range []int{7, 13, 5, 6, 12, 0, -3} {
		if _, err := BoseSTS(v); err == nil {
			t.Errorf("BoseSTS(%d) should fail", v)
		}
	}
}

func TestHeffterSTS(t *testing.T) {
	for _, v := range []int{7, 13, 19, 25, 31, 37} {
		d, err := HeffterSTS(v)
		mustVerify(t, d, err)
		if len(d.Blocks) != v*(v-1)/6 {
			t.Errorf("STS(%d): %d blocks, want %d", v, len(d.Blocks), v*(v-1)/6)
		}
	}
}

func TestHeffterSTSRejects(t *testing.T) {
	for _, v := range []int{9, 15, 8, 1, 3} {
		if _, err := HeffterSTS(v); err == nil {
			t.Errorf("HeffterSTS(%d) should fail", v)
		}
	}
}

func TestSTSDispatch(t *testing.T) {
	for _, v := range []int{7, 9, 13, 15, 19, 21, 25, 27} {
		d, err := STS(v)
		mustVerify(t, d, err)
		_ = d
	}
	for _, v := range []int{2, 4, 5, 6, 8, 10, 11, 12, 14} {
		if _, err := STS(v); err == nil {
			t.Errorf("STS(%d) should fail (inadmissible v)", v)
		}
	}
}

func TestAffinePlane(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9} {
		d, err := AffinePlane(q)
		mustVerify(t, d, err)
		if d.N != q*q || d.C != q {
			t.Errorf("AG(2,%d): got (%d,%d), want (%d,%d)", q, d.N, d.C, q*q, q)
		}
		if len(d.Blocks) != q*q+q {
			t.Errorf("AG(2,%d): %d lines, want %d", q, len(d.Blocks), q*q+q)
		}
	}
	if _, err := AffinePlane(6); err == nil {
		t.Error("AffinePlane(6) should fail: 6 not a prime power")
	}
}

func TestAffinePlane3IsPaperDesign(t *testing.T) {
	// AG(2,3) and the paper's (9,3,1) are both STS(9); STS(9) is unique up
	// to isomorphism, but the labelings differ. Check equal parameters and
	// that both verify; also check they cover the same pair structure.
	ag, err := AffinePlane(3)
	if err != nil {
		t.Fatal(err)
	}
	p := Paper931()
	if ag.N != p.N || ag.C != p.C || len(ag.Blocks) != len(p.Blocks) {
		t.Errorf("AG(2,3) parameters differ from paper design")
	}
}

func TestProjectivePlane(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8} {
		d, err := ProjectivePlane(q)
		mustVerify(t, d, err)
		if d.N != q*q+q+1 || d.C != q+1 {
			t.Errorf("PG(2,%d): got (%d,%d), want (%d,%d)", q, d.N, d.C, q*q+q+1, q+1)
		}
		// In a projective plane, #lines == #points.
		if len(d.Blocks) != d.N {
			t.Errorf("PG(2,%d): %d lines, want %d", q, len(d.Blocks), d.N)
		}
	}
	if _, err := ProjectivePlane(6); err == nil {
		t.Error("ProjectivePlane(6) should fail")
	}
}

func TestFanoPlane(t *testing.T) {
	d, err := ProjectivePlane(2)
	mustVerify(t, d, err)
	if d.N != 7 || d.C != 3 || len(d.Blocks) != 7 {
		t.Errorf("Fano plane wrong shape: %s", d)
	}
}

func TestRotations(t *testing.T) {
	d := Paper931()
	rows := d.Rotations()
	if len(rows) != 36 {
		t.Fatalf("Rotations: %d rows, want 36", len(rows))
	}
	// Every row must have 3 distinct devices; the multiset of device sets
	// must contain each design block exactly 3 times.
	setCount := make(map[string]int)
	for _, row := range rows {
		if len(row) != 3 {
			t.Fatalf("row size %d, want 3", len(row))
		}
		if row[0] == row[1] || row[1] == row[2] || row[0] == row[2] {
			t.Fatalf("row %v has duplicate devices", row)
		}
		setCount[canonBlock(row)]++
	}
	for set, n := range setCount {
		if n != 3 {
			t.Errorf("device set %s appears %d times, want 3", set, n)
		}
	}
	// Rotation-major order (Fig 7): the first 12 rows are the design blocks
	// themselves; row 12 is block 0's first rotation.
	if rows[0][0] != d.Blocks[0][0] || rows[1][0] != d.Blocks[1][0] {
		t.Error("rotation order wrong: first rows must be the design blocks")
	}
	if rows[12][0] != d.Blocks[0][1] {
		t.Error("row 12 should be block 0 rotated once")
	}
}

func TestForParams(t *testing.T) {
	good := [][2]int{{9, 3}, {13, 3}, {7, 3}, {15, 3}, {19, 3}, {16, 4}, {25, 5}, {13, 4}, {21, 5}, {37, 4}, {41, 5}}
	for _, g := range good {
		d, err := ForParams(g[0], g[1])
		if err != nil {
			t.Errorf("ForParams(%d,%d): %v", g[0], g[1], err)
			continue
		}
		mustVerify(t, d, nil)
		if d.N != g[0] || d.C != g[1] {
			t.Errorf("ForParams(%d,%d) returned %s", g[0], g[1], d)
		}
	}
	bad := [][2]int{{8, 3}, {10, 3}, {12, 4}, {36, 6}, {5, 5}}
	for _, b := range bad {
		if _, err := ForParams(b[0], b[1]); err == nil {
			t.Errorf("ForParams(%d,%d) should fail", b[0], b[1])
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	d := Paper931()
	// Duplicate point in a block.
	bad := *d
	bad.Blocks = append([][]int{}, d.Blocks...)
	bad.Blocks[0] = []int{0, 0, 2}
	if bad.Verify() == nil {
		t.Error("Verify accepted a block with duplicate points")
	}
	// Out-of-range point.
	bad.Blocks[0] = []int{0, 1, 9}
	if bad.Verify() == nil {
		t.Error("Verify accepted an out-of-range point")
	}
	// Pair appearing twice.
	bad.Blocks[0] = []int{0, 1, 2}
	bad.Blocks[1] = []int{0, 1, 3}
	if bad.Verify() == nil {
		t.Error("Verify accepted a repeated pair")
	}
	// Wrong block size.
	bad.Blocks[1] = []int{0, 3}
	if bad.Verify() == nil {
		t.Error("Verify accepted a short block")
	}
}

func TestEquivalent(t *testing.T) {
	a := Paper931()
	b := Paper931()
	// Shuffle block order and rotate points inside blocks.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(b.Blocks), func(i, j int) { b.Blocks[i], b.Blocks[j] = b.Blocks[j], b.Blocks[i] })
	for i, blk := range b.Blocks {
		b.Blocks[i] = []int{blk[2], blk[0], blk[1]}
	}
	if !Equivalent(a, b) {
		t.Error("Equivalent should ignore block and point order")
	}
	c := Paper1331()
	if Equivalent(a, c) {
		t.Error("different designs reported equivalent")
	}
}

// Property: for every STS produced, S(M) grows quadratically and
// AccessesFor inverts it.
func TestQuickSInversion(t *testing.T) {
	d := Paper931()
	prop := func(bu uint8) bool {
		b := int(bu)%100 + 1
		m := d.AccessesFor(b)
		return d.S(m) >= b && (m == 0 || d.S(m-1) < b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: every pair of devices appears in exactly one block for randomly
// selected STS sizes (spot-check of construction validity beyond the fixed
// list above).
func TestQuickSTSPairProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, v := range []int{39, 43, 49, 51} {
		d, err := STS(v)
		mustVerify(t, d, err)
		_ = d
	}
}

func BenchmarkBoseSTS27(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BoseSTS(27); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeffterSTS37(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := HeffterSTS(37); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify931(b *testing.B) {
	d := Paper931()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDifferenceFamily(t *testing.T) {
	cases := [][2]int{{7, 3}, {13, 3}, {13, 4}, {37, 4}, {21, 5}, {41, 5}}
	for _, c := range cases {
		v, k := c[0], c[1]
		bases, err := DifferenceFamily(v, k)
		if err != nil {
			t.Errorf("(%d,%d): %v", v, k, err)
			continue
		}
		if len(bases) != (v-1)/(k*(k-1)) {
			t.Errorf("(%d,%d): %d base blocks, want %d", v, k, len(bases), (v-1)/(k*(k-1)))
		}
		// Differences cover 1..v/2 exactly once.
		seen := make([]bool, v/2+1)
		for _, blk := range bases {
			for i := 0; i < len(blk); i++ {
				for j := i + 1; j < len(blk); j++ {
					d := blk[j] - blk[i]
					if d < 0 {
						d += v
					}
					if d > v/2 {
						d = v - d
					}
					if seen[d] {
						t.Fatalf("(%d,%d): difference %d covered twice", v, k, d)
					}
					seen[d] = true
				}
			}
		}
		for d := 1; d <= v/2; d++ {
			if !seen[d] {
				t.Fatalf("(%d,%d): difference %d not covered", v, k, d)
			}
		}
	}
}

func TestDifferenceFamilyRejects(t *testing.T) {
	// Inadmissible residues plus v=25, a classical exception: the residue
	// is admissible but no cyclic (25,4,1) design exists.
	for _, c := range [][2]int{{8, 3}, {12, 4}, {10, 1}, {14, 3}, {25, 4}} {
		if _, err := DifferenceFamily(c[0], c[1]); err == nil {
			t.Errorf("(%d,%d) should fail", c[0], c[1])
		}
	}
}

func TestCyclicDesign(t *testing.T) {
	for _, c := range [][2]int{{13, 4}, {37, 4}, {21, 5}} {
		d, err := CyclicDesign(c[0], c[1])
		mustVerify(t, d, err)
		if d.N != c[0] || d.C != c[1] {
			t.Errorf("wrong parameters: %s", d)
		}
	}
	if _, err := CyclicDesign(12, 4); err == nil {
		t.Error("inadmissible parameters should fail")
	}
}

func TestKnownDesigns(t *testing.T) {
	known := KnownDesigns(25)
	if len(known) < 8 {
		t.Fatalf("only %d known designs up to N=25", len(known))
	}
	seen := map[[2]int]bool{}
	for _, k := range known {
		if seen[[2]int{k.N, k.C}] {
			t.Errorf("(%d,%d) listed twice", k.N, k.C)
		}
		seen[[2]int{k.N, k.C}] = true
		// Every listed design must actually construct and verify.
		d, err := ForParams(k.N, k.C)
		if err != nil {
			t.Errorf("(%d,%d) listed but not constructible: %v", k.N, k.C, err)
			continue
		}
		if err := d.Verify(); err != nil {
			t.Errorf("(%d,%d): %v", k.N, k.C, err)
		}
		if k.S1 != d.S(1) {
			t.Errorf("(%d,%d): S1 %d vs %d", k.N, k.C, k.S1, d.S(1))
		}
	}
	// The paper's two designs must be present.
	if !seen[[2]int{9, 3}] || !seen[[2]int{13, 3}] {
		t.Error("paper designs missing from catalog")
	}
}

// canonBlock returns a sorted copy of a block, for set comparisons.
func canonBlock(blk []int) string {
	c := make([]int, len(blk))
	copy(c, blk)
	sort.Ints(c)
	return fmt.Sprint(c)
}

// Equivalent reports whether two designs have the same block multiset
// (ignoring the order of points inside a block and the order of blocks).
func Equivalent(a, b *Design) bool {
	if a.N != b.N || a.C != b.C || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	count := make(map[string]int, len(a.Blocks))
	for _, blk := range a.Blocks {
		count[canonBlock(blk)]++
	}
	for _, blk := range b.Blocks {
		count[canonBlock(blk)]--
		if count[canonBlock(blk)] < 0 {
			return false
		}
	}
	return true
}

// Known describes one constructible design parameter set.
type Known struct {
	N, C    int
	Name    string
	S1      int // guarantee S(1)
	Buckets int // rotation capacity
}

// KnownDesigns enumerates every (N, c, 1) design this package can
// construct with N <= maxN, by probing the constructions. Useful for
// sizing an array: pick the smallest design whose S(M) covers the target
// load.
func KnownDesigns(maxN int) []Known {
	var out []Known
	for n := 3; n <= maxN; n++ {
		for c := 3; c <= 5 && c < n; c++ {
			d, err := ForParams(n, c)
			if err != nil {
				continue
			}
			out = append(out, Known{N: d.N, C: d.C, Name: d.Name, S1: d.S(1), Buckets: d.MaxBuckets()})
		}
	}
	return out
}
