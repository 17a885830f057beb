package decluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flashqos/internal/design"
	"flashqos/internal/maxflow"
)

func allSchemes(t *testing.T) []Allocator {
	t.Helper()
	dt, err := NewDesignTheoretic(design.Paper931())
	if err != nil {
		t.Fatal(err)
	}
	mir, err := NewRAID1Mirrored(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewRAID1Chained(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	rda, err := NewRDA(9, 3, 36, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartitioned(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	per, err := NewDependentPeriodic(9, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	orth, err := NewOrthogonal(9)
	if err != nil {
		t.Fatal(err)
	}
	return []Allocator{dt, mir, ch, rda, part, per, orth}
}

func TestValidateAllSchemes(t *testing.T) {
	for _, a := range allSchemes(t) {
		if err := Validate(a); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestDesignTheoreticShape(t *testing.T) {
	dt, _ := NewDesignTheoretic(design.Paper931())
	if dt.Devices() != 9 || dt.Copies() != 3 || dt.Rows() != 36 {
		t.Errorf("DT(9,3,1): N=%d c=%d rows=%d, want 9/3/36", dt.Devices(), dt.Copies(), dt.Rows())
	}
	if d := dt.Design(); d.AccessesFor(5) != 1 || d.AccessesFor(6) != 2 || d.AccessesFor(14) != 2 || d.AccessesFor(15) != 3 {
		t.Error("DT guarantee thresholds wrong (want S(1)=5, S(2)=14)")
	}
}

func TestDesignTheoreticRejectsBadDesign(t *testing.T) {
	bad := &design.Design{N: 9, C: 3, Lambda: 1, Blocks: [][]int{{0, 1, 2}}}
	if _, err := NewDesignTheoretic(bad); err == nil {
		t.Error("NewDesignTheoretic should reject an invalid design")
	}
}

// TestDesignTheoreticGuarantee is the paper's core claim: any b <= S(M)
// DISTINCT buckets are retrievable in M accesses. (The guarantee is about
// bucket sets — with duplicate requests it can be beaten, e.g. two requests
// for each rotation of one design block put 5+ requests on 3 devices; the
// paper's Fig 4 sampling allows duplicates but such collisions are too rare
// to register.)
func TestDesignTheoreticGuarantee(t *testing.T) {
	dt, _ := NewDesignTheoretic(design.Paper931())
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		m := 1 + rng.Intn(3)
		s := dt.Design().S(m)
		b := 1 + rng.Intn(s)
		perm := rng.Perm(36)
		replicas := make([][]int, b)
		for i := range replicas {
			replicas[i] = dt.Replicas(perm[i])
		}
		got, _ := maxflow.MinAccesses(replicas, 9)
		if got > m {
			t.Fatalf("guarantee violated: %d buckets needed %d accesses, guarantee %d", b, got, m)
		}
	}
}

// TestDuplicateRequestsCanBeatGuarantee documents the boundary: the
// deterministic guarantee is stated over distinct buckets. Five requests
// covering the three rotations of one design block (two of them twice)
// land on only three devices and need two accesses.
func TestDuplicateRequestsCanBeatGuarantee(t *testing.T) {
	dt, _ := NewDesignTheoretic(design.Paper931())
	// Buckets 0, 12 and 24 are the three rotations of design block 0
	// (rotation-major order): same device set.
	replicas := [][]int{
		dt.Replicas(0), dt.Replicas(12), dt.Replicas(24),
		dt.Replicas(0), dt.Replicas(12),
	}
	m, _ := maxflow.MinAccesses(replicas, 9)
	if m != 2 {
		t.Errorf("duplicate-heavy request cost %d accesses, want 2", m)
	}
}

func TestRAID1MirroredMatchesFig7(t *testing.T) {
	mir, _ := NewRAID1Mirrored(9, 3)
	// Paper Fig 7: b0 → d0,d1,d2; b1 → d3,d4,d5; b2 → d6,d7,d8; b3 → d0,d1,d2.
	want := map[int][]int{
		0: {0, 1, 2}, 1: {3, 4, 5}, 2: {6, 7, 8}, 3: {0, 1, 2},
	}
	for b, w := range want {
		got := mir.Replicas(b)
		same := true
		// Compare as sets: the mirrored group is what Fig 7 specifies.
		set := map[int]bool{}
		for _, d := range got {
			set[d] = true
		}
		for _, d := range w {
			if !set[d] {
				same = false
			}
		}
		if !same {
			t.Errorf("mirrored bucket %d on %v, want group %v", b, got, w)
		}
	}
}

func TestRAID1ChainedMatchesFig7(t *testing.T) {
	ch, _ := NewRAID1Chained(9, 3)
	// Paper Fig 7: b0 → d0,d1,d2; b1 → d1,d2,d3; ...; b8 → d8,d0,d1.
	for b := 0; b < 9; b++ {
		got := ch.Replicas(b)
		for j := 0; j < 3; j++ {
			if got[j] != (b+j)%9 {
				t.Errorf("chained bucket %d copy %d on %d, want %d", b, j, got[j], (b+j)%9)
			}
		}
	}
}

func TestRAID1RotationsSpreadPrimaries(t *testing.T) {
	// With rotations (rows beyond the first wrap), the primary copy of the
	// mirrored scheme must not always land on the group's first device.
	mir, _ := NewRAID1Mirrored(9, 3)
	primaries := map[int]bool{}
	for b := 0; b < mir.Rows(); b++ {
		primaries[mir.Replicas(b)[0]] = true
	}
	if len(primaries) != 9 {
		t.Errorf("mirrored primaries cover %d devices, want 9", len(primaries))
	}
}

func TestRDADeterministicSeed(t *testing.T) {
	a1, _ := NewRDA(9, 3, 36, 7)
	a2, _ := NewRDA(9, 3, 36, 7)
	for b := 0; b < 36; b++ {
		r1, r2 := a1.Replicas(b), a2.Replicas(b)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatal("same seed should give same placement")
			}
		}
	}
	a3, _ := NewRDA(9, 3, 36, 8)
	diff := false
	for b := 0; b < 36; b++ {
		r1, r3 := a1.Replicas(b), a3.Replicas(b)
		for i := range r1 {
			if r1[i] != r3[i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds should give different placements")
	}
}

func TestPartitionedStructure(t *testing.T) {
	p, _ := NewPartitioned(9, 3)
	for b := 0; b < 9; b++ {
		row := p.Replicas(b)
		if row[0] != b {
			t.Errorf("partitioned primary of bucket %d is %d, want %d", b, row[0], b)
		}
		group := b / 3
		for _, d := range row {
			if d/3 != group {
				t.Errorf("bucket %d replica %d escapes group %d", b, d, group)
			}
		}
	}
}

func TestDependentPeriodic(t *testing.T) {
	p, err := NewDependentPeriodic(9, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	row := p.Replicas(1)
	want := []int{1, 4, 7}
	for i := range want {
		if row[i] != want[i] {
			t.Errorf("periodic shift-3 bucket 1: %v, want %v", row, want)
		}
	}
	// shift that collides replicas must be rejected: shift=3, n=9, c=4
	// places copy 3 at +9 ≡ +0.
	if _, err := NewDependentPeriodic(9, 4, 3); err == nil {
		t.Error("colliding shift should be rejected")
	}
}

func TestOrthogonalPairProperty(t *testing.T) {
	o, err := NewOrthogonal(9)
	if err != nil {
		t.Fatal(err)
	}
	if o.Rows() != 36 {
		t.Errorf("orthogonal(9) rows = %d, want 36 pairs", o.Rows())
	}
	seen := map[[2]int]bool{}
	for b := 0; b < o.Rows(); b++ {
		r := o.Replicas(b)
		lo, hi := r[0], r[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		key := [2]int{lo, hi}
		if seen[key] {
			t.Fatalf("pair %v hosts two buckets", key)
		}
		seen[key] = true
	}
}

func TestOrthogonalGuarantee(t *testing.T) {
	// §II-B3: orthogonal allocation retrieves any b buckets in ⌈√b⌉ accesses.
	o, _ := NewOrthogonal(9)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		b := 1 + rng.Intn(20)
		replicas := make([][]int, b)
		for i := range replicas {
			replicas[i] = o.Replicas(rng.Intn(o.Rows()))
		}
		m, _ := maxflow.MinAccesses(replicas, 9)
		if bound := int(math.Ceil(math.Sqrt(float64(b)))); m > bound {
			t.Fatalf("orthogonal bound violated: b=%d cost=%d bound=%d", b, m, bound)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []struct {
		name string
		f    func() (Allocator, error)
	}{
		{"mirrored n%c!=0", func() (Allocator, error) { return NewRAID1Mirrored(10, 3) }},
		{"mirrored c<2", func() (Allocator, error) { return NewRAID1Mirrored(9, 1) }},
		{"chained n<c", func() (Allocator, error) { return NewRAID1Chained(2, 3) }},
		{"rda buckets<1", func() (Allocator, error) { return NewRDA(9, 3, 0, 1) }},
		{"partitioned n%c!=0", func() (Allocator, error) { return NewPartitioned(10, 3) }},
		{"periodic shift<1", func() (Allocator, error) { return NewDependentPeriodic(9, 3, 0) }},
		{"orthogonal n<2", func() (Allocator, error) { return NewOrthogonal(1) }},
	}
	for _, c := range cases {
		if _, err := c.f(); err == nil {
			t.Errorf("%s: constructor should fail", c.name)
		}
	}
}

func TestNegativeBucketPanics(t *testing.T) {
	dt, _ := NewDesignTheoretic(design.Paper931())
	defer func() {
		if recover() == nil {
			t.Error("negative bucket should panic")
		}
	}()
	dt.Replicas(-1)
}

// Property: for every scheme, replica sets are stable (same bucket → same
// devices) and wrap modulo Rows().
func TestQuickReplicaStability(t *testing.T) {
	schemes := allSchemes(t)
	prop := func(bu uint16) bool {
		b := int(bu)
		for _, a := range schemes {
			r1 := a.Replicas(b)
			r2 := a.Replicas(b)
			r3 := a.Replicas(b % a.Rows())
			for i := range r1 {
				if r1[i] != r2[i] || r1[i] != r3[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestWorstCaseComparison demonstrates the paper's motivation: with RAID-1
// mirrored, an adversarial 5-bucket request can force 5 serial accesses on
// one mirror group (only 3 devices serve them), while design-theoretic
// guarantees 1 access for any 5 buckets.
func TestWorstCaseComparison(t *testing.T) {
	mir, _ := NewRAID1Mirrored(9, 3)
	// Buckets 0, 3, 6, 9, 12 all live on group {0,1,2} (b mod 3 == 0).
	replicas := make([][]int, 5)
	for i := range replicas {
		replicas[i] = mir.Replicas(i * 3)
	}
	m, _ := maxflow.MinAccesses(replicas, 9)
	if m < 2 {
		t.Errorf("mirrored worst case: got %d accesses, expected >= 2", m)
	}

	dt, _ := NewDesignTheoretic(design.Paper931())
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		perm := rng.Perm(36)
		reps := make([][]int, 5)
		for i := range reps {
			reps[i] = dt.Replicas(perm[i])
		}
		got, _ := maxflow.MinAccesses(reps, 9)
		if got != 1 {
			t.Fatalf("DT: 5 distinct buckets needed %d accesses, want 1 always", got)
		}
	}
}

func BenchmarkDesignTheoreticReplicas(b *testing.B) {
	dt, _ := NewDesignTheoretic(design.Paper931())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dt.Replicas(i % 36)
	}
}

// TestGuaranteeAcrossDesigns replicates the core guarantee property on the
// other constructions the framework offers: any b <= S(M) distinct buckets
// retrieve within M accesses on (13,3,1), (16,4,1) and (7,3,1).
func TestGuaranteeAcrossDesigns(t *testing.T) {
	configs := []struct{ n, c int }{{13, 3}, {16, 4}, {7, 3}}
	for _, cfg := range configs {
		d, err := design.ForParams(cfg.n, cfg.c)
		if err != nil {
			t.Fatalf("(%d,%d): %v", cfg.n, cfg.c, err)
		}
		dt, err := NewDesignTheoretic(d)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(cfg.n*100 + cfg.c)))
		for trial := 0; trial < 800; trial++ {
			m := 1 + rng.Intn(2)
			s := d.S(m)
			if s > dt.Rows() {
				s = dt.Rows()
			}
			b := 1 + rng.Intn(s)
			perm := rng.Perm(dt.Rows())
			replicas := make([][]int, b)
			for i := range replicas {
				replicas[i] = dt.Replicas(perm[i])
			}
			got, _ := maxflow.MinAccesses(replicas, d.N)
			if got > m {
				t.Fatalf("(%d,%d) M=%d: %d buckets needed %d accesses", cfg.n, cfg.c, m, b, got)
			}
		}
	}
}

// Validate runs structural checks on any allocator: replica lists have c
// distinct in-range devices and rows wrap consistently.
func Validate(a Allocator) error {
	n, c := a.Devices(), a.Copies()
	if a.Rows() < 1 {
		return fmt.Errorf("decluster: %s has no rows", a.Name())
	}
	for b := 0; b < a.Rows(); b++ {
		row := a.Replicas(b)
		if len(row) != c {
			return fmt.Errorf("decluster: %s row %d has %d copies, want %d", a.Name(), b, len(row), c)
		}
		seen := make(map[int]bool, c)
		for _, d := range row {
			if d < 0 || d >= n {
				return fmt.Errorf("decluster: %s row %d device %d out of range", a.Name(), b, d)
			}
			if seen[d] {
				return fmt.Errorf("decluster: %s row %d repeats device %d", a.Name(), b, d)
			}
			seen[d] = true
		}
	}
	// Wrapping.
	r0 := a.Replicas(0)
	rw := a.Replicas(a.Rows())
	for i := range r0 {
		if r0[i] != rw[i] {
			return fmt.Errorf("decluster: %s does not wrap modulo Rows()", a.Name())
		}
	}
	return nil
}
