package admission

import (
	"strings"
	"sync"
	"testing"
)

func mustGate(t *testing.T, capacity int, specs ...TenantSpec) *MClock {
	t.Helper()
	m, err := NewMClock(capacity)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) > 0 {
		if err := m.Configure(specs); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestMClockValidation(t *testing.T) {
	if _, err := NewMClock(0); err == nil {
		t.Error("zero capacity should fail")
	}
	m, _ := NewMClock(10)
	cases := []struct {
		name  string
		specs []TenantSpec
		want  string
	}{
		{"duplicate", []TenantSpec{{Name: "a", Weight: 1}, {Name: "a", Weight: 1}}, "duplicate"},
		{"negative reserve", []TenantSpec{{Name: "a", Reserve: -1, Weight: 1}}, "negative reservation"},
		{"negative limit", []TenantSpec{{Name: "a", Limit: -1, Weight: 1}}, "negative limit"},
		{"limit below reserve", []TenantSpec{{Name: "a", Reserve: 5, Limit: 3, Weight: 1}}, "limit 3 < reservation 5"},
		{"zero weight", []TenantSpec{{Name: "a", Weight: 0}}, "weight"},
		{"over-reserved", []TenantSpec{{Name: "a", Reserve: 6, Weight: 1}, {Name: "b", Reserve: 5, Weight: 1}}, "> capacity"},
		{"dirty inactive slot", []TenantSpec{{Reserve: 1}}, "inactive slot"},
	}
	for _, c := range cases {
		err := m.Configure(c.specs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
	// Invalid configurations must not disturb the published policy.
	if m.Snapshot() != nil {
		t.Error("failed Configure published a snapshot")
	}
}

func TestMClockSnapshotNilWhenInactive(t *testing.T) {
	m := mustGate(t, 9)
	if m.Snapshot() != nil {
		t.Fatal("fresh gate should have nil snapshot")
	}
	if err := m.Configure([]TenantSpec{{Name: "a", Reserve: 3, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot() == nil {
		t.Fatal("configured gate should publish a snapshot")
	}
	// Deactivating every slot turns the gate back off.
	if err := m.Configure([]TenantSpec{{}}); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot() != nil {
		t.Fatal("all-inactive policy should publish nil")
	}
}

func TestMClockCapsPartitionCapacity(t *testing.T) {
	// capacity 10, reserves 2+2, surplus 6 split 3:1 → quotas 5 and 1
	// (largest remainder: 4.5 and 1.5 floor to 4+1, leftover goes to
	// the larger fraction, ties broken by slot order).
	m := mustGate(t, 10,
		TenantSpec{Name: "a", Reserve: 2, Weight: 3},
		TenantSpec{Name: "b", Reserve: 2, Weight: 1},
	)
	s := m.Snapshot()
	if got := s.Cap(1); got != 7 {
		t.Errorf("tenant a cap = %d, want 7", got)
	}
	if got := s.Cap(2); got != 3 {
		t.Errorf("tenant b cap = %d, want 3", got)
	}
	if s.Cap(1)+s.Cap(2) != m.Capacity() {
		t.Errorf("caps %d+%d do not partition capacity %d", s.Cap(1), s.Cap(2), m.Capacity())
	}
}

func TestMClockUnknownTenant(t *testing.T) {
	m := mustGate(t, 9,
		TenantSpec{Name: "a", Weight: 1},
		TenantSpec{}, // deleted slot keeps its index
	)
	s := m.Snapshot()
	for _, tt := range []int32{0, 2, 3, -1} {
		if v := s.NoteArrival(tt, 0); v != Unknown {
			t.Errorf("NoteArrival(%d) = %v, want Unknown", tt, v)
		}
		if _, ok := s.Acquire(tt, 0, 1); ok {
			t.Errorf("Acquire(%d) should fail", tt)
		}
		if s.Active(tt) {
			t.Errorf("Active(%d) should be false", tt)
		}
	}
	if !s.Active(1) {
		t.Error("Active(1) should be true")
	}
}

func TestMClockLimit(t *testing.T) {
	m := mustGate(t, 9, TenantSpec{Name: "a", Limit: 3, Weight: 1})
	s := m.Snapshot()
	for i := 0; i < 3; i++ {
		if v := s.NoteArrival(1, 5); v != OK {
			t.Fatalf("arrival %d: %v, want OK", i, v)
		}
	}
	if v := s.NoteArrival(1, 5); v != OverLimit {
		t.Fatalf("4th arrival in window: %v, want OverLimit", v)
	}
	// A different arrival window has its own budget.
	if v := s.NoteArrival(1, 6); v != OK {
		t.Fatalf("fresh window: %v, want OK", v)
	}
	c, _ := m.Counters("a")
	if c.OverLimit != 1 || c.Rejected != 1 {
		t.Errorf("counters = %+v, want OverLimit=1 Rejected=1", c)
	}
}

func TestMClockAcquireReserveAndCap(t *testing.T) {
	// capacity 9, reserve 3, sole tenant → cap 9 (3 reserved + all surplus).
	m := mustGate(t, 9, TenantSpec{Name: "a", Reserve: 3, Weight: 1})
	s := m.Snapshot()
	for i := 0; i < 9; i++ {
		reserved, ok := s.Acquire(1, 0, 1)
		if !ok {
			t.Fatalf("acquire %d refused below cap", i)
		}
		if wantRes := i < 3; reserved != wantRes {
			t.Errorf("acquire %d: reserved = %v, want %v", i, reserved, wantRes)
		}
	}
	if _, ok := s.Acquire(1, 0, 1); ok {
		t.Fatal("acquire above cap should fail")
	}
	s.Release(1, 0, 1)
	if _, ok := s.Acquire(1, 0, 1); !ok {
		t.Fatal("release should free a slot")
	}
	// Multi-slot (write) acquisition is all-or-nothing.
	if _, ok := s.Acquire(1, 1, 10); ok {
		t.Fatal("n > cap should fail")
	}
	if _, ok := s.Acquire(1, 1, 9); !ok {
		t.Fatal("n == cap in a fresh window should succeed")
	}
	if _, ok := s.Acquire(1, 1, 1); ok {
		t.Fatal("window full after n == cap")
	}
}

func TestMClockTwoTenantsIsolated(t *testing.T) {
	m := mustGate(t, 10,
		TenantSpec{Name: "a", Reserve: 4, Weight: 1},
		TenantSpec{Name: "b", Reserve: 4, Weight: 1},
	)
	s := m.Snapshot()
	// Tenant a exhausts its cap (4 reserved + 1 surplus = 5)...
	for i := 0; i < 5; i++ {
		if _, ok := s.Acquire(1, 0, 1); !ok {
			t.Fatalf("a acquire %d refused", i)
		}
	}
	if _, ok := s.Acquire(1, 0, 1); ok {
		t.Fatal("a should be capped at 5")
	}
	// ...and tenant b's reserved slice is untouched.
	for i := 0; i < 5; i++ {
		if _, ok := s.Acquire(2, 0, 1); !ok {
			t.Fatalf("b acquire %d refused after a filled its cap", i)
		}
	}
}

func TestMClockCountersSurviveConfigure(t *testing.T) {
	m := mustGate(t, 9, TenantSpec{Name: "a", Weight: 1})
	m.Snapshot().NoteAdmitted(1)
	m.Snapshot().NoteDeficit(1)
	if err := m.Configure([]TenantSpec{
		{Name: "a", Reserve: 2, Weight: 2},
		{Name: "b", Weight: 1},
	}); err != nil {
		t.Fatal(err)
	}
	m.Snapshot().NoteAdmitted(1)
	c, ok := m.Counters("a")
	if !ok || c.Admitted != 2 || c.Deficit != 1 {
		t.Errorf("counters after reconfigure = %+v ok=%v, want Admitted=2 Deficit=1", c, ok)
	}
	if c, ok := m.Counters("b"); !ok || c.Admitted != 0 {
		t.Errorf("fresh tenant counters = %+v ok=%v", c, ok)
	}
	if _, ok := m.Counters("zzz"); ok {
		t.Error("unknown tenant should have no counters")
	}
}

func TestMClockManyWindows(t *testing.T) {
	// March the window frontier far past the pruning horizon; every
	// fresh window must start with a full budget.
	m := mustGate(t, 9, TenantSpec{Name: "a", Reserve: 2, Limit: 2, Weight: 1})
	s := m.Snapshot()
	for w := int64(0); w < int64(keepChunks*chunkLen*2); w += 97 {
		if v := s.NoteArrival(1, w); v != OK {
			t.Fatalf("window %d: arrival %v", w, v)
		}
		if _, ok := s.Acquire(1, w, 1); !ok {
			t.Fatalf("window %d: acquire refused", w)
		}
	}
}

// TestWinCountsPruneBound walks a two-tenant counter space across a million
// windows: the chunk map never holds more than 2·keepChunks+1 chunks, and
// the walk allocates nothing but the chunks themselves (one per chunkLen
// keys) — pruning is one scan per keepChunks new chunks, with no map churn.
func TestWinCountsPruneBound(t *testing.T) {
	const stride, span, runs = 2, 10_000, 100 // (runs+1)·span ≈ 1 M windows
	var wc winCounts
	wc.init(stride)
	var w int64
	allocs := testing.AllocsPerRun(runs, func() {
		for end := w + span; w < end; w++ {
			wc.counter(1, w).Add(1)
			if n := len(wc.chunks); n > 2*keepChunks+1 {
				t.Fatalf("window %d: %d chunks held, bound %d", w, n, 2*keepChunks+1)
			}
		}
	})
	if perRun := float64(span*stride) / chunkLen; allocs > perRun+1 {
		t.Errorf("%.1f allocs per %d-window walk, want the %.1f chunks only", allocs, span, perRun)
	}
}

func TestMClockConcurrentAcquire(t *testing.T) {
	const cap = 128
	m := mustGate(t, cap, TenantSpec{Name: "a", Reserve: 32, Weight: 1})
	s := m.Snapshot()
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for {
				if _, ok := s.Acquire(1, 7, 1); !ok {
					break
				}
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != cap {
		t.Fatalf("concurrent acquires took %d slots, want exactly %d", total, cap)
	}
}
