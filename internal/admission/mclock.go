// Package admission implements per-tenant rate shaping composed in front
// of the paper's S-bound admission. The policy model is mClock's
// (Gulati et al., OSDI '10) — per-tenant reservations, limits, and
// proportional-share weights — but the mechanism is not a dispatch-queue
// simulator: it is an O(1) lock-free gate built for the zero-allocation
// submit hot path.
//
// The refactoring from tag queues to a gate works because the S-bound
// ledger already serializes admission into T-windows of exactly S slots.
// Instead of ordering a backlog by reservation/weight tags, the gate
// partitions each window up front: tenant i owns Reserve_i slots plus a
// weighted share of the surplus S − ΣReserve (apportioned by largest
// remainder so the per-tenant caps sum to exactly S). A submission is
// admitted against its tenant's cap for the window it lands in; because
// Σcaps = S, no tenant can displace another tenant's reserved slice as
// long as all traffic is tenant-tagged. Limits are enforced at arrival
// time: a tenant over Limit arrivals in its arrival window is rejected
// before the ledger is touched, so over-limit traffic consumes no credit.
//
// Policies are swapped atomically: Configure publishes an immutable
// MCSnap behind an atomic.Pointer, so live reconfiguration never pauses
// the engine. A reconfiguration opens fresh per-window accounting (the
// new snapshot's counters and scan frontiers start empty); per-tenant
// gauges are carried across reconfiguration by tenant name. When no tenant
// is active the snapshot is nil and the gate costs one atomic load.
//
// An over-cap submission is delayed to a later window, and Σcaps rarely
// fills a window to S, so no global frontier passes the windows a tenant
// has exhausted: each snapshot keeps one scan frontier per tenant instead,
// the ledger hint's rule applied to the tenant's slice (RaiseFrontier,
// Acquire).
//
// The gate's counts live in two Windows stores (windows.go), the one
// counter type the ledger uses too, keyed by (window, tenant slot). Each
// store's reclaim floor follows the requests: arrival counts are raised to
// the arrival window (NoteArrival), usage counts to the scan start
// (RaiseFrontier), where every later walk begins. A tenant's deep backlog
// therefore keeps its own counters alive and evicts nobody else's; only a
// request stamped more than reclaimMargin windows behind a floor can see a
// fresh counter, and take it past its cap there. The S-bound is the
// ledger's and is unaffected. A frontier never moves back, so tenant walks do not
// revisit the windows it has passed.
package admission

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// TenantSpec declares one tenant's share of a capacity-S admission window.
type TenantSpec struct {
	// Name identifies the tenant. An empty name marks an inactive slot:
	// the slot keeps its index (so wire-negotiated tenant indices stay
	// stable across TENANT DEL) but gates nothing.
	Name string
	// Reserve is the number of admissions per T-window set aside for
	// this tenant. While every submission carries a tenant tag, the
	// reserved slice cannot be consumed by other tenants.
	Reserve int
	// Limit caps the tenant's arrivals per T-window (0 = unlimited).
	// Arrivals beyond the limit are rejected without consuming any
	// ledger credit.
	Limit int
	// Weight sets the tenant's proportional share of the surplus
	// capacity S − ΣReserve. Must be > 0 for active slots.
	Weight float64
}

// Verdict classifies a tenant arrival.
type Verdict uint8

const (
	// OK: under limit; proceed to Acquire and the S-bound ledger.
	OK Verdict = iota
	// Unknown: tenant index out of range, or the slot is inactive.
	Unknown
	// OverLimit: the tenant exceeded Limit arrivals in this arrival
	// window; reject without touching the ledger.
	OverLimit
)

// Counters is a point-in-time read of one tenant's gauges.
type Counters struct {
	Admitted  int64 // submissions admitted by the ledger
	Rejected  int64 // submissions rejected (over limit, unavailable or zero cap)
	OverLimit int64 // rejections caused by the per-window arrival limit
	Deficit   int64 // reserved acquisitions the global ledger could not honor
}

// tenantStats is the live, atomically-updated form of Counters. Stats
// are owned by the MClock and keyed by tenant name, so they survive
// Configure calls (successive snapshots share the same pointers).
type tenantStats struct {
	admitted  atomic.Int64
	rejected  atomic.Int64
	overLimit atomic.Int64
	deficit   atomic.Int64
}

func (s *tenantStats) read() Counters {
	return Counters{
		Admitted:  s.admitted.Load(),
		Rejected:  s.rejected.Load(),
		OverLimit: s.overLimit.Load(),
		Deficit:   s.deficit.Load(),
	}
}

// MClock is the tenant gate for one admission engine. The zero value is
// not usable; construct with NewMClock.
type MClock struct {
	capacity int
	mu       sync.Mutex // serializes Configure
	snap     atomic.Pointer[MCSnap]
	stats    map[string]*tenantStats
	specs    []TenantSpec // last configured slot table (copy), under mu
}

// NewMClock creates a gate partitioning windows of capacity slots
// (the engine's S). No tenants are active until Configure.
func NewMClock(capacity int) (*MClock, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("admission: capacity %d < 1", capacity)
	}
	return &MClock{capacity: capacity, stats: make(map[string]*tenantStats)}, nil
}

// Configure validates and atomically publishes a new tenant policy.
// Slot i of specs corresponds to tenant index i+1 (index 0 means
// "no tenant" throughout the system). Inactive slots (empty Name) keep
// their position so existing wire-negotiated indices stay valid. The
// running engine is never paused: in-flight submissions finish against
// whichever snapshot they loaded, and the new snapshot opens fresh
// per-window accounting. Gauges are carried over by tenant name.
func (m *MClock) Configure(specs []TenantSpec) error {
	cp := make([]TenantSpec, len(specs))
	copy(cp, specs)
	seen := make(map[string]struct{}, len(cp))
	sumRes, active := 0, 0
	for i, s := range cp {
		if s.Name == "" {
			if s.Reserve != 0 || s.Limit != 0 || s.Weight != 0 {
				return fmt.Errorf("admission: slot %d: inactive slot must be zero", i)
			}
			continue
		}
		if _, dup := seen[s.Name]; dup {
			return fmt.Errorf("admission: duplicate tenant %q", s.Name)
		}
		seen[s.Name] = struct{}{}
		if s.Reserve < 0 {
			return fmt.Errorf("admission: tenant %q: negative reservation", s.Name)
		}
		if s.Limit < 0 {
			return fmt.Errorf("admission: tenant %q: negative limit", s.Name)
		}
		if s.Limit > 0 && s.Limit < s.Reserve {
			return fmt.Errorf("admission: tenant %q: limit %d < reservation %d", s.Name, s.Limit, s.Reserve)
		}
		if !(s.Weight > 0) {
			return fmt.Errorf("admission: tenant %q: weight must be > 0", s.Name)
		}
		sumRes += s.Reserve
		active++
	}
	if sumRes > m.capacity {
		return fmt.Errorf("admission: reservations total %d > capacity %d", sumRes, m.capacity)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.specs = cp
	if active == 0 {
		m.snap.Store(nil)
		return nil
	}
	snap := &MCSnap{
		specs: cp,
		caps:  partition(cp, m.capacity, sumRes),
		stats: make([]*tenantStats, len(cp)),
	}
	for i, s := range cp {
		if s.Name == "" {
			continue
		}
		st := m.stats[s.Name]
		if st == nil {
			st = &tenantStats{}
			m.stats[s.Name] = st
		}
		snap.stats[i] = st
	}
	snap.arrivals.stride = int64(len(cp))
	snap.usage.stride = int64(len(cp))
	snap.front = make([]atomic.Int64, len(cp))
	m.snap.Store(snap)
	return nil
}

// partition splits capacity into per-slot window caps: Reserve_i plus a
// weight-proportional share of the surplus, apportioned by largest
// remainder so that Σcaps == capacity exactly.
func partition(specs []TenantSpec, capacity, sumRes int) []int32 {
	surplus := capacity - sumRes
	var wsum float64
	for _, s := range specs {
		if s.Name != "" {
			wsum += s.Weight
		}
	}
	caps := make([]int32, len(specs))
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, 0, len(specs))
	given := 0
	for i, s := range specs {
		if s.Name == "" {
			continue
		}
		exact := float64(surplus) * s.Weight / wsum
		q := int(exact)
		caps[i] = int32(s.Reserve + q)
		given += q
		rems = append(rems, rem{i, exact - float64(q)})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; given < surplus; k++ {
		caps[rems[k%len(rems)].i]++
		given++
	}
	return caps
}

// Snapshot returns the current immutable policy, or nil when no tenant
// is active (the gate is off). The hot path loads this once per
// submission and uses it for the submission's whole lifetime.
func (m *MClock) Snapshot() *MCSnap { return m.snap.Load() }

// Specs returns a copy of the last configured slot table.
func (m *MClock) Specs() []TenantSpec {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make([]TenantSpec, len(m.specs))
	copy(cp, m.specs)
	return cp
}

// Counters reads a tenant's gauges by name. Gauges survive Configure.
func (m *MClock) Counters(name string) (Counters, bool) {
	m.mu.Lock()
	st := m.stats[name]
	m.mu.Unlock()
	if st == nil {
		return Counters{}, false
	}
	return st.read(), true
}

// MCSnap is an immutable published policy: per-slot specs, per-window
// caps, and the live counter spaces. All methods are safe for
// concurrent use and allocation-free on the fast path.
//
// Tenant indices are 1-based (slot i holds tenant index i+1); index 0
// and out-of-range or inactive indices answer Unknown/false.
type MCSnap struct {
	specs []TenantSpec
	caps  []int32
	stats []*tenantStats

	// arrivals counts submissions per (tenant, arrival window) for
	// Limit enforcement; usage counts ledger acquisitions per
	// (tenant, scan window) for Reserve/cap enforcement; both key
	// window·len(specs) + slot. The stores are separate because their
	// floors differ: under a delayed backlog the scan start runs
	// arbitrarily ahead of arrivals.
	arrivals Windows
	usage    Windows

	front []atomic.Int64 // per-slot scan frontiers (Acquire)
}

// slot maps a 1-based tenant index to a validated slot, or -1.
func (s *MCSnap) slot(t int32) int {
	i := int(t) - 1
	if i < 0 || i >= len(s.specs) || s.specs[i].Name == "" {
		return -1
	}
	return i
}

// key is slot i's counter key for window w in arrivals and usage.
func (s *MCSnap) key(i int, w int64) int64 { return w*int64(len(s.specs)) + int64(i) }

// Cap returns tenant t's per-window cap (Reserve + surplus quota).
func (s *MCSnap) Cap(t int32) int {
	i := s.slot(t)
	if i < 0 {
		return 0
	}
	return int(s.caps[i])
}

// NoteArrival charges one arrival for tenant t in arrival window w and
// enforces Limit. OverLimit bumps the over-limit and rejected gauges
// (the caller rejects without calling NoteRejected again).
func (s *MCSnap) NoteArrival(t int32, w int64) Verdict {
	i := s.slot(t)
	if i < 0 {
		return Unknown
	}
	lim := s.specs[i].Limit
	if lim == 0 {
		return OK
	}
	s.arrivals.RaiseFloor(w)
	if s.arrivals.Counter(s.key(i, w)).Add(1) > int32(lim) {
		st := s.stats[i]
		st.overLimit.Add(1)
		st.rejected.Add(1)
		return OverLimit
	}
	return OK
}

// take claims n usage slots for slot i in window w if they fit below its
// cap; reserved reports whether the whole claim landed inside the reserved
// slice (for deficit accounting when the global ledger then refuses the
// window), and full reports a refusal with the tenant's usage in w at its
// cap.
func (s *MCSnap) take(i int, w int64, n int32) (reserved, ok, full bool) {
	capi := s.caps[i]
	c := s.usage.Counter(s.key(i, w))
	for {
		cur := c.Load()
		if cur+n > capi {
			return false, false, cur >= capi
		}
		if c.CompareAndSwap(cur, cur+n) {
			return cur+n <= int32(s.specs[i].Reserve), true, false
		}
	}
}

// RaiseFrontier lifts tenant t's scan frontier — the first window at or
// after the latest scan start where t may still have cap — to w, the
// window a new scan starts in, and the usage store's floor with it: no
// later walk starts below a scan start. Neither moves back.
func (s *MCSnap) RaiseFrontier(t int32, w int64) {
	if i := s.slot(t); i >= 0 {
		s.usage.RaiseFloor(w)
		f := &s.front[i]
		for h := f.Load(); w > h && !f.CompareAndSwap(h, w); h = f.Load() {
		}
	}
}

// Acquire takes n usage slots for tenant t in the first window at or after
// max(w, t's scan frontier) that has them and returns that window; ok is
// false only for an unknown tenant or n above its cap. A refusal at the
// frontier window with usage at cap extends the frontier by one; any other
// refusal moves nothing, and a cap-exhausted tenant's walk is O(1)
// amortized. Single-threaded, with scan starts
// raised in nondecreasing order, it skips exactly the windows the full walk
// would fail in; under concurrency the frontier is advisory like the ledger
// hint — a race may only admit later, since take's CAS enforces the cap.
func (s *MCSnap) Acquire(t int32, w int64, n int32) (at int64, reserved, ok bool) {
	i := s.slot(t)
	if i < 0 || n > s.caps[i] {
		return w, false, false
	}
	f := &s.front[i]
	w = max(w, f.Load())
	for {
		reserved, ok, full := s.take(i, w, n)
		if ok {
			return w, reserved, true
		}
		if full {
			f.CompareAndSwap(w, w+1)
		}
		w++
	}
}

// Release returns n usage slots taken by Acquire for (t, w) — called
// when the global ledger refuses the window or the scheduler moves the
// request to a later window.
func (s *MCSnap) Release(t int32, w int64, n int32) {
	if i := s.slot(t); i >= 0 {
		s.usage.Counter(s.key(i, w)).Add(-n)
	}
}

// NoteAdmitted bumps tenant t's admitted gauge.
func (s *MCSnap) NoteAdmitted(t int32) {
	if i := s.slot(t); i >= 0 {
		s.stats[i].admitted.Add(1)
	}
}

// NoteRejected bumps tenant t's rejected gauge: a request refused after
// its arrival was counted (every replica unavailable, or a cap too small
// for it ever to fit); over-limit rejections are counted by NoteArrival.
func (s *MCSnap) NoteRejected(t int32) {
	if i := s.slot(t); i >= 0 {
		s.stats[i].rejected.Add(1)
	}
}

// NoteDeficit bumps tenant t's reservation-deficit gauge: an
// acquisition inside the reserved slice that the global ledger could
// not honor (untenanted traffic or degraded capacity consumed the
// window).
func (s *MCSnap) NoteDeficit(t int32) {
	if i := s.slot(t); i >= 0 {
		s.stats[i].deficit.Add(1)
	}
}
