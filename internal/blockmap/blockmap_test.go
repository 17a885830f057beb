package blockmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flashqos/internal/fim"
)

func TestNewMapperValidation(t *testing.T) {
	if _, err := NewMapper(0); err == nil {
		t.Error("rows=0 should fail")
	}
	if _, err := NewMapper(-5); err == nil {
		t.Error("negative rows should fail")
	}
}

func TestModuloFallback(t *testing.T) {
	m, err := NewMapper(36)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int64{0, 1, 35, 36, 37, 1000000} {
		want := int(b % 36)
		if got := m.DesignBlock(b); got != want {
			t.Errorf("DesignBlock(%d) = %d, want %d (modulo rule)", b, got, want)
		}
		if m.Mapped(b) {
			t.Errorf("block %d should not be FIM-mapped", b)
		}
	}
	// Negative data block numbers still land in range.
	if got := m.DesignBlock(-5); got < 0 || got >= 36 {
		t.Errorf("negative block mapped out of range: %d", got)
	}
}

func TestBuildFromPairsSeparatesCoRequested(t *testing.T) {
	m, _ := NewMapper(36)
	pairs := []fim.Pair{
		{A: 100, B: 200, Support: 10},
		{A: 100, B: 300, Support: 8},
		{A: 200, B: 300, Support: 5},
	}
	m.BuildFromPairs(pairs)
	for _, b := range []int64{100, 200, 300} {
		if !m.Mapped(b) {
			t.Fatalf("block %d not FIM-mapped", b)
		}
	}
	// All three co-requested blocks must land on distinct design blocks.
	d1, d2, d3 := m.DesignBlock(100), m.DesignBlock(200), m.DesignBlock(300)
	if d1 == d2 || d1 == d3 || d2 == d3 {
		t.Errorf("co-requested blocks share design blocks: %d %d %d", d1, d2, d3)
	}
	if m.ConflictSupport(pairs) != 0 {
		t.Errorf("conflict support = %d, want 0", m.ConflictSupport(pairs))
	}
}

func TestBuildFromPairsOverloaded(t *testing.T) {
	// More mutually-conflicting blocks than design blocks: with rows=2 and
	// a triangle of pairs, one conflict is unavoidable; the mapper must
	// sacrifice the lowest-support edge.
	m, _ := NewMapper(2)
	pairs := []fim.Pair{
		{A: 1, B: 2, Support: 100},
		{A: 1, B: 3, Support: 90},
		{A: 2, B: 3, Support: 1},
	}
	m.BuildFromPairs(pairs)
	if m.DesignBlock(1) == m.DesignBlock(2) {
		t.Error("highest-support pair (1,2) should be separated")
	}
	if m.DesignBlock(1) == m.DesignBlock(3) {
		t.Error("pair (1,3) should be separated")
	}
	if got := m.ConflictSupport(pairs); got != 1 {
		t.Errorf("conflict support = %d, want 1 (the weak edge)", got)
	}
}

func TestBuildFromPairsEmptyResets(t *testing.T) {
	m, _ := NewMapper(8)
	m.BuildFromPairs([]fim.Pair{{A: 1, B: 2, Support: 3}})
	if !m.Mapped(1) || !m.Mapped(2) {
		t.Fatal("build did nothing")
	}
	m.BuildFromPairs(nil)
	if m.Mapped(1) || m.Mapped(2) {
		t.Error("rebuilding with no pairs should clear assignments")
	}
}

func TestFIMBeatsModuloOnConflicts(t *testing.T) {
	// Construct a workload where co-requested blocks collide under modulo:
	// pairs (k, k+rows) always share a modulo class.
	rows := 12
	m, _ := NewMapper(rows)
	var pairs []fim.Pair
	for k := int64(0); k < 10; k++ {
		pairs = append(pairs, fim.Pair{A: k, B: k + int64(rows), Support: 5})
	}
	// Modulo: every pair conflicts.
	if got := m.ConflictSupport(pairs); got != 50 {
		t.Fatalf("modulo conflict = %d, want 50", got)
	}
	m.BuildFromPairs(pairs)
	if got := m.ConflictSupport(pairs); got != 0 {
		t.Errorf("FIM mapping conflict = %d, want 0", got)
	}
}

// Property: the mapping is always in range and deterministic, and blocks
// from the mined pairs are all assigned.
func TestQuickMapperInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(40)
		m, err := NewMapper(rows)
		if err != nil {
			return false
		}
		var pairs []fim.Pair
		for i := 0; i < rng.Intn(50); i++ {
			a := int64(rng.Intn(100))
			b := int64(rng.Intn(100))
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, fim.Pair{A: a, B: b, Support: 1 + rng.Intn(20)})
		}
		m.BuildFromPairs(pairs)
		for _, p := range pairs {
			if !m.Mapped(p.A) || !m.Mapped(p.B) {
				return false
			}
		}
		for b := int64(-10); b < 200; b++ {
			db := m.DesignBlock(b)
			if db < 0 || db >= rows {
				return false
			}
			if db != m.DesignBlock(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuildFromPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var pairs []fim.Pair
	for i := 0; i < 5000; i++ {
		a := int64(rng.Intn(2000))
		bb := int64(rng.Intn(2000))
		if a == bb {
			continue
		}
		if a > bb {
			a, bb = bb, a
		}
		pairs = append(pairs, fim.Pair{A: a, B: bb, Support: 1 + rng.Intn(50)})
	}
	m, _ := NewMapper(36)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BuildFromPairs(pairs)
	}
}
