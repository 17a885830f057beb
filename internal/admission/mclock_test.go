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
	if s.Cap(1)+s.Cap(2) != 10 {
		t.Errorf("caps %d+%d do not partition capacity 10", s.Cap(1), s.Cap(2))
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
		if _, _, ok := s.Acquire(tt, 0, 1); ok {
			t.Errorf("Acquire(%d) should fail", tt)
		}
	}
	if v := s.NoteArrival(1, 0); v != OK {
		t.Errorf("NoteArrival(1) = %v, want OK", v)
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

// acquireAt acquires n slots for tenant t from window w and fails the test
// unless they land in window want.
func acquireAt(t *testing.T, s *MCSnap, tenant int32, w int64, n int32, want int64) (reserved bool) {
	t.Helper()
	at, reserved, ok := s.Acquire(tenant, w, n)
	if !ok || at != want {
		t.Fatalf("Acquire(%d, %d, %d) = window %d ok=%v, want window %d", tenant, w, n, at, ok, want)
	}
	return reserved
}

func TestMClockAcquireReserveAndCap(t *testing.T) {
	// capacity 9, reserve 3, sole tenant → cap 9 (3 reserved + all surplus).
	m := mustGate(t, 9, TenantSpec{Name: "a", Reserve: 3, Weight: 1})
	s := m.Snapshot()
	for i := 0; i < 9; i++ {
		if reserved, wantRes := acquireAt(t, s, 1, 0, 1, 0), i < 3; reserved != wantRes {
			t.Errorf("acquire %d: reserved = %v, want %v", i, reserved, wantRes)
		}
	}
	// A release frees a slot in the window it was taken in.
	s.Release(1, 0, 1)
	acquireAt(t, s, 1, 0, 1, 0)
	// Window 0 is at cap: the next acquisition is delayed to window 1.
	acquireAt(t, s, 1, 0, 1, 1)
	// Multi-slot (write) acquisition is all-or-nothing.
	if _, _, ok := s.Acquire(1, 5, 10); ok {
		t.Fatal("n > cap should fail")
	}
	acquireAt(t, s, 1, 5, 9, 5)
	acquireAt(t, s, 1, 5, 1, 6)
}

// TestMClockAcquireFrontier pins the per-tenant scan frontier: a refusal at
// the frontier with usage at cap moves it, a write short of room below cap
// does not, and a scan starting behind the frontier begins at it.
func TestMClockAcquireFrontier(t *testing.T) {
	m := mustGate(t, 5, TenantSpec{Name: "a", Weight: 1})
	s := m.Snapshot()
	acquireAt(t, s, 1, 0, 3, 0)
	// 3+3 > 5 refuses window 0 below cap: the write lands in window 1 and
	// window 0 stays open for reads.
	acquireAt(t, s, 1, 0, 3, 1)
	acquireAt(t, s, 1, 0, 2, 0)
	// Window 0 is now at cap; the refusal there moves the frontier to 1.
	acquireAt(t, s, 1, 0, 1, 1)
	acquireAt(t, s, 1, 0, 1, 1)
	// Window 1 is at cap too: the frontier moves on to 2, and a scan
	// starting at window 0 begins there — even past a slot released behind
	// the frontier, which never moves back.
	acquireAt(t, s, 1, 0, 1, 2)
	s.Release(1, 0, 1)
	acquireAt(t, s, 1, 0, 1, 2)
	// RaiseFrontier never moves back.
	s.RaiseFrontier(1, 7)
	s.RaiseFrontier(1, 3)
	acquireAt(t, s, 1, 0, 1, 7)
}

func TestMClockTwoTenantsIsolated(t *testing.T) {
	m := mustGate(t, 10,
		TenantSpec{Name: "a", Reserve: 4, Weight: 1},
		TenantSpec{Name: "b", Reserve: 4, Weight: 1},
	)
	s := m.Snapshot()
	// Tenant a exhausts its cap (4 reserved + 1 surplus = 5), and its
	// sixth acquisition is delayed to window 1...
	for i := 0; i < 5; i++ {
		acquireAt(t, s, 1, 0, 1, 0)
	}
	acquireAt(t, s, 1, 0, 1, 1)
	// ...while tenant b's share of window 0 is untouched.
	for i := 0; i < 5; i++ {
		acquireAt(t, s, 2, 0, 1, 0)
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
	// March the scan start far past the point where both stores reclaim
	// (shardPruneLen chunks in every shard); every fresh window must start
	// with a full budget.
	m := mustGate(t, 9, TenantSpec{Name: "a", Reserve: 2, Limit: 2, Weight: 1})
	s := m.Snapshot()
	for w := int64(0); w < 2*shardPruneLen*windowShardCount*chunkSize; w += 97 {
		if v := s.NoteArrival(1, w); v != OK {
			t.Fatalf("window %d: arrival %v", w, v)
		}
		s.RaiseFrontier(1, w)
		acquireAt(t, s, 1, w, 1, w)
	}
	if n, _ := s.usage.Census(); n > shardPruneLen*windowShardCount {
		t.Errorf("usage store holds %d chunks, bound %d", n, shardPruneLen*windowShardCount)
	}
}

// TestMClockBacklogKeepsOtherTenantsUsage: one tenant's deep backlog must
// not reclaim another tenant's live usage counters. Tenant a fills its cap
// in window 100; tenant b then walks far ahead from the same scan start,
// as the engine drives it (RaiseFrontier, then Acquire), until every shard
// of the usage store has run prune scans. a's cap in window 100 must still
// be spent. (20,000 acquisitions already break a store that prunes by
// distance from its newest chunk.)
func TestMClockBacklogKeepsOtherTenantsUsage(t *testing.T) {
	m := mustGate(t, 5,
		TenantSpec{Name: "a", Reserve: 1, Weight: 1},
		TenantSpec{Name: "b", Reserve: 1, Weight: 1},
		TenantSpec{Name: "c", Reserve: 1, Weight: 1})
	s := m.Snapshot()
	const w = 100
	s.RaiseFrontier(1, w)
	for range s.Cap(1) {
		acquireAt(t, s, 1, w, 1, w)
	}
	// Two acquisitions per window of 3 keys: 1.5·backlog keys, or
	// 1.5·shardPruneLen chunks in every shard.
	const backlog = shardPruneLen * windowShardCount * chunkSize
	for range backlog {
		s.RaiseFrontier(2, w)
		if _, _, ok := s.Acquire(2, w, 1); !ok {
			t.Fatal("tenant b refused")
		}
	}
	for i := range s.usage.shards {
		if s.usage.shards[i].scanned == 0 {
			t.Fatalf("usage shard %d never ran a prune scan", i)
		}
	}
	if at, _, _ := s.Acquire(1, w, 1); at == w {
		t.Fatalf("tenant a admitted past its cap %d in window %d after b's backlog", s.Cap(1), w)
	}
}

func TestMClockConcurrentAcquire(t *testing.T) {
	const cap = 128
	m := mustGate(t, cap, TenantSpec{Name: "a", Reserve: 32, Weight: 1})
	s := m.Snapshot()
	// 8 goroutines take three windows' worth of slots from window 7. Usage
	// only grows here, so a window the frontier passes stays full: the
	// acquisitions must pack windows 7, 8 and 9 to exactly cap each.
	const goroutines = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	perWindow := map[int64]int{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := map[int64]int{}
			for i := 0; i < 3*cap/goroutines; i++ {
				at, _, ok := s.Acquire(1, 7, 1)
				if !ok {
					t.Error("acquire refused")
					return
				}
				local[at]++
			}
			mu.Lock()
			for w, n := range local {
				perWindow[w] += n
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(perWindow) != 3 || perWindow[7] != cap || perWindow[8] != cap || perWindow[9] != cap {
		t.Fatalf("concurrent acquires per window = %v, want %d in each of windows 7, 8, 9", perWindow, cap)
	}
}
