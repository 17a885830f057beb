package core

import (
	"sync/atomic"

	"flashqos/internal/admission"
)

// shardedLedger is the per-T-window admission accounting behind the engine
// (§III: at most S requests retrieved per interval) and its single source
// of truth for window counts: one admission.Windows counter per window. A
// request reserves a slot with a CAS loop, so independent submissions —
// different windows, or free capacity in the same window — proceed in
// parallel while the per-window count provably never exceeds the limit
// (the test suite enforces this under -race). A frontier hint remembers
// the earliest window that was ever observed full, so admission under
// overload is O(1) amortized instead of scanning full windows one by one.
//
// The store's reclaim floor is raised with the hint, by the statistical
// fold (statGate.closeUpTo), and by every submit path to its arrival
// window once that submission's fold is done, so a fold never reads a
// reclaimed window. No later scan starts below any of them.
type shardedLedger struct {
	// hint is the earliest window not yet observed full; windows below it
	// are skipped on the admission fast path. It only advances, and it is
	// advisory: per-window correctness comes from the CAS reservation, the
	// hint only short-circuits the scan under sustained overload.
	hint atomic.Int64

	// The store's first field is its most recently resolved chunk, so the
	// admission scan's two per-request ledger reads — frontier and the
	// frontier window's counter — share one cache line.
	admission.Windows
}

// tryReserve atomically claims n admission slots in window w. During a
// mask transition concurrent callers may briefly hold different limits;
// each CAS enforces the limit its caller observed, so the count never
// exceeds the largest concurrently valid guarantee.
func (l *shardedLedger) tryReserve(w int64, n, limit int) bool {
	c := l.Counter(w)
	for {
		v := c.Load()
		if v+int32(n) > int32(limit) {
			return false
		}
		if c.CompareAndSwap(v, v+int32(n)) {
			return true
		}
	}
}

// reserveUpTo claims min(n, room) slots in window w with one CAS loop and
// returns how many it claimed (0 means the window is full) — the grouped
// form of tryReserve behind the read scan, which pays one counter update
// per (window, burst); unused claims must be released. Like tryReserve,
// each CAS enforces the limit its caller observed.
func (l *shardedLedger) reserveUpTo(w int64, n, limit int) int {
	c := l.Counter(w)
	for {
		v := c.Load()
		room := int32(limit) - v
		if room <= 0 {
			return 0
		}
		take := int32(n)
		if take > room {
			take = room
		}
		if c.CompareAndSwap(v, v+take) {
			return int(take)
		}
	}
}

// add claims n slots unconditionally — the statistical controller may
// admit past the deterministic limit (§III-B over-admission).
func (l *shardedLedger) add(w int64, n int) { l.Counter(w).Add(int32(n)) }

// release returns n slots claimed by tryReserve/reserveUpTo/add (the
// scheduler could not serve the request at the reserved time).
func (l *shardedLedger) release(w int64, n int) { l.Counter(w).Add(int32(-n)) }

// noteFull records that the window below next was observed full. The hint
// is a "no admission possible below" *prefix*, so a full window may only
// extend it contiguously: a request can observe a full window far ahead
// of the frontier (its admit time jumps over windows when its replica
// devices are busy) while the skipped windows still have capacity for
// other blocks. Advancing past those would starve them, so only a
// failure at the frontier window itself extends it — the scan reports a
// full window w as noteFull(w+1), so the contiguous case is next == h+1.
func (l *shardedLedger) noteFull(next int64) {
	if h := l.hint.Load(); next == h+1 && l.hint.CompareAndSwap(h, next) {
		l.RaiseFloor(next)
	}
}

// noteDeadBefore raises the hint to w outright — callers must guarantee no
// request can ever be admitted below w. The one such proof is device
// exhaustion (see engine.deadBefore): windows whose whole time range has
// every device busy are dead no matter how many admission slots remain,
// because both the read path (one idle replica) and the write path (all
// replicas idle) need a device free inside the window.
func (l *shardedLedger) noteDeadBefore(w int64) {
	for {
		h := l.hint.Load()
		if w <= h || l.hint.CompareAndSwap(h, w) {
			break
		}
	}
	l.RaiseFloor(w)
}

// frontier returns the earliest window admission scans may start from.
func (l *shardedLedger) frontier() int64 { return l.hint.Load() }
