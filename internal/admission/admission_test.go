package admission

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flashqos/internal/sampling"
)

// TestTableIScenario walks the paper's Table I example: S = 5 (M=1 on the
// (9,3,1) design). App1 size 2 at T0, App2 size 2 at T1, App3 size 1 at T2
// fills the system; a fourth application must be rejected.
func TestTableIScenario(t *testing.T) {
	r, err := NewRegistry(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Admit("app1", 2); err != nil {
		t.Fatalf("app1: %v", err)
	}
	if err := r.Admit("app2", 2); err != nil {
		t.Fatalf("app2: %v", err)
	}
	if r.Total() != 4 {
		t.Errorf("total = %d, want 4", r.Total())
	}
	if err := r.Admit("app3", 1); err != nil {
		t.Fatalf("app3: %v", err)
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5 (the limit)", r.Total())
	}
	if err := r.Admit("app4", 1); err == nil {
		t.Error("app4 should be rejected: system full")
	}
	// After an application leaves, capacity frees up.
	r.Leave("app1")
	if r.Total() != 3 {
		t.Errorf("total after leave = %d, want 3", r.Total())
	}
	if err := r.Admit("app4", 2); err != nil {
		t.Errorf("app4 after leave: %v", err)
	}
}

func TestRegistryEdgeCases(t *testing.T) {
	r, _ := NewRegistry(5)
	if err := r.Admit("a", 0); err == nil {
		t.Error("size 0 should fail")
	}
	if err := r.Admit("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Admit("a", 1); err == nil {
		t.Error("duplicate admit should fail")
	}
	r.Leave("nonexistent") // must not panic or corrupt
	if r.Total() != 2 {
		t.Error("Leave of unknown app changed total")
	}
}

func testTable() *sampling.Table {
	// Synthetic P_k resembling Fig 4 for (9,3,1).
	return &sampling.Table{N: 9, P: []float64{1, 1, 1, 1, 1, 1, 0.99, 0.98, 0.95, 0.75, 1, 1, 1}}
}

// The §III-B rule tests below drive the controller the way the engine
// does: decide an interval against the published Snapshot, then record
// the size it admitted — k in full when WouldAdmit(k), otherwise S.

func TestStatisticalWithinSAlwaysAdmits(t *testing.T) {
	s, err := NewStatistical(5, 0.01, testTable())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !s.Snapshot().WouldAdmit(5) {
			t.Fatalf("interval %d: size 5 = S refused", i)
		}
		s.RecordInterval(5)
	}
	if q := s.Snapshot().Q(); q != 0 {
		t.Errorf("Q = %g, want 0 when all intervals within S", q)
	}
}

func TestStatisticalAdmitsBeyondS(t *testing.T) {
	// With a loose epsilon, sizes 6-8 should be admitted (P_k high).
	s, _ := NewStatistical(5, 0.10, testTable())
	if !s.Snapshot().WouldAdmit(7) {
		t.Error("epsilon=0.10 should admit size 7")
	}
}

func TestStatisticalRejectsWhenQTooHigh(t *testing.T) {
	// Epsilon tighter than (1-P9)=0.25 of a size-9 interval: first size-9
	// interval would push Q to 0.25 > ε, so only S admitted.
	s, _ := NewStatistical(5, 0.05, testTable())
	if s.Snapshot().WouldAdmit(9) {
		t.Error("size 9 should clamp to S under epsilon=0.05")
	}
	s.RecordInterval(5)
	if q := s.Snapshot().Q(); q != 0 {
		t.Errorf("Q = %g after recording the clamped interval, want 0", q)
	}
}

func TestStatisticalQAveragesOverHistory(t *testing.T) {
	// Many size-5 intervals dilute R_k, letting an occasional size-9
	// through under a moderate epsilon.
	s, _ := NewStatistical(5, 0.01, testTable())
	for i := 0; i < 99; i++ {
		s.RecordInterval(5)
	}
	// Hypothetical size-9 interval: Q = 0.25 * 1/100 = 0.0025 < 0.01.
	if !s.Snapshot().WouldAdmit(9) {
		t.Errorf("diluted history should admit size 9 (Q=%g)", s.Snapshot().Q())
	}
	s.RecordInterval(9)
	sn := s.Snapshot()
	if sn.Intervals() != 100 {
		t.Errorf("intervals = %d, want 100", sn.Intervals())
	}
	if q := sn.Q(); q < 0.0025-1e-12 || q > 0.0025+1e-12 {
		t.Errorf("Q = %g, want 0.0025", q)
	}
}

func TestStatisticalEpsilonZeroIsDeterministic(t *testing.T) {
	s, _ := NewStatistical(5, 0, testTable())
	for _, k := range []int{6, 9, 12} {
		if s.Snapshot().WouldAdmit(k) {
			t.Errorf("epsilon=0 admitted %d in full, want S=5", k)
		}
		s.RecordInterval(5)
	}
}

func TestStatisticalValidation(t *testing.T) {
	tb := testTable()
	if _, err := NewStatistical(0, 0.1, tb); err == nil {
		t.Error("S=0 should fail")
	}
	if _, err := NewStatistical(5, -0.1, tb); err == nil {
		t.Error("negative epsilon should fail")
	}
	if _, err := NewStatistical(5, 1.0, tb); err == nil {
		t.Error("epsilon=1 should fail")
	}
	if _, err := NewStatistical(5, 0.1, nil); err == nil {
		t.Error("nil table should fail")
	}
	s, _ := NewStatistical(5, 0.1, tb)
	defer func() {
		if recover() == nil {
			t.Error("negative interval size should panic")
		}
	}()
	s.RecordInterval(-1)
}

func TestStatisticalSizeBeyondTable(t *testing.T) {
	s, _ := NewStatistical(5, 0.5, testTable())
	// Size way beyond the table uses the extrapolated last value (P=1),
	// so Q contribution is 0 and it should be admitted under loose epsilon.
	if !s.Snapshot().WouldAdmit(50) {
		t.Error("size beyond table should be admitted")
	}
	s.RecordInterval(50) // clamps into the table's last bucket
	if n := s.Snapshot().Intervals(); n != 1 {
		t.Errorf("intervals = %d, want 1", n)
	}
}

// Property: the statistical controller admits a superset of what the
// deterministic S-bound admits — every size within S, whatever the
// history — and loosening ε never refuses a size a tighter ε admits.
func TestQuickStatisticalDominatesDeterministic(t *testing.T) {
	tb := testTable()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := rng.Float64() * 0.5
		tight, _ := NewStatistical(5, e, tb)
		loose, _ := NewStatistical(5, e+rng.Float64()*(0.99-e), tb)
		for i := 0; i < 50; i++ {
			st, sl := tight.Snapshot(), loose.Snapshot()
			for k := 0; k < 2*tb.MaxK(); k++ {
				if k <= 5 && !st.WouldAdmit(k) {
					return false
				}
				if st.WouldAdmit(k) && !sl.WouldAdmit(k) {
					return false
				}
			}
			k := rng.Intn(12)
			tight.RecordInterval(k)
			loose.RecordInterval(k)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotIsImmutable checks a snapshot keeps reporting the history it
// froze after the live controller moves on — the property that makes it
// safe to share across goroutines without locks.
func TestSnapshotIsImmutable(t *testing.T) {
	s, _ := NewStatistical(5, 0.1, testTable())
	s.RecordInterval(9)
	sn := s.Snapshot()
	q0, n0 := sn.Q(), sn.Intervals()
	for i := 0; i < 50; i++ {
		s.RecordInterval(5) // P_5 = 1: dilutes Q, so the live estimate moves
	}
	if sn.Q() != q0 || sn.Intervals() != n0 {
		t.Errorf("snapshot drifted with live controller: Q %v -> %v, intervals %d -> %d",
			q0, sn.Q(), n0, sn.Intervals())
	}
	if s.Snapshot().Q() == q0 {
		t.Error("live controller should have moved (test is vacuous otherwise)")
	}
}
