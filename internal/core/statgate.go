package core

import (
	"sync"
	"sync/atomic"

	"flashqos/internal/admission"
)

// statGate is the concurrency shell around the statistical admission
// controller (§III-B). The Q = Σ(1−P_k)·R_k estimator is order-dependent —
// closed T-windows must fold into the interval histogram exactly once, in
// window order — which historically forced every ε > 0 request through one
// mutex. The gate splits the estimator into three roles with different
// consistency needs:
//
//   - Accumulation is the ledger's job. Per-window admitted counts R_k
//     build up in the sharded CAS counters exactly as in deterministic
//     mode; nothing statistical happens on that path.
//   - Merging is serialized but rare. The first submission to observe a
//     window boundary folds every newly closed window into the canonical
//     controller under mu — once per T-window, not per request — and
//     publishes a fresh immutable admission.Snapshot. lastClosed advances
//     atomically, so concurrent submissions in an already-closed region
//     skip the lock entirely with one atomic load.
//   - Decisions are lock-free. wouldAdmit evaluates the published snapshot
//     (one atomic pointer load, zero allocations); it never touches the
//     live controller.
//
// Single-threaded this is bit-identical to the serialized path: merges
// happen at the same points, in the same order, over the same history,
// which the ε > 0 golden transcripts enforce byte-for-byte. Under
// concurrency the snapshot a decision sees is bounded-stale — at most the
// windows whose merge is in flight plus the requests racing into the
// current window — and the ε guarantee degrades gracefully rather than
// breaking; DESIGN.md §10 gives the argument.
type statGate struct {
	mu   sync.Mutex             // serializes merges
	stat *admission.Statistical // canonical history; guarded by mu
	snap atomic.Pointer[admission.Snapshot]

	// lastClosed is the most recent window folded into the history. It
	// only advances, and only under mu; readers use it to skip the merge
	// lock when there is provably nothing to fold.
	lastClosed atomic.Int64

	// Statistical admission frontier. A window dies when its
	// count sits at the deterministic limit AND the published snapshot
	// refuses to over-admit past it; refusal is final — the window never
	// reopens, even if a later snapshot would have accepted its size. This
	// matches the paper's forward-only interval model (§III-B closes each
	// interval's admission when the interval does; it never revisits old
	// intervals with a fresher estimator) and is what makes the frontier
	// monotone, so sustained overload costs O(1) amortized per request
	// instead of rescanning an ever-growing dead backlog. Finality only
	// ever under-admits relative to a rescanning implementation, so the
	// ε violation bound is preserved (the ε > 0 golden transcripts pin the
	// resulting decisions).
	deadFrontier atomic.Int64
}

// newStatGate wraps a controller and publishes its (empty) initial
// snapshot.
func newStatGate(stat *admission.Statistical) *statGate {
	g := &statGate{stat: stat}
	g.lastClosed.Store(-1)
	g.snap.Store(stat.Snapshot())
	return g
}

// frontier returns the first window not declared statistically dead (0 when
// none is). Submissions may start their window scan here: the
// skipped prefix consists only of windows a refusal already closed for
// good, so the admit time is identical to a full rescan under sticky
// verdicts. The load is lock-free; the frontier only grows (resetWindows
// aside), so a stale read merely rescans a few already-dead windows.
func (g *statGate) frontier() int64 {
	return g.deadFrontier.Load()
}

// noteDead records that window w was full at the deterministic limit and
// the published snapshot refused to over-admit into it. Refusal is final
// (see the deadFrontier comment), so the scan may start at w+1 from now on.
// Lock-free CAS-max; called on the overflow path only.
func (g *statGate) noteDead(w int64) {
	next := w + 1
	for {
		cur := g.deadFrontier.Load()
		if cur >= next || g.deadFrontier.CompareAndSwap(cur, next) {
			break
		}
	}
}

// closeUpTo folds every window before w into the interval history and
// publishes a fresh snapshot. Windows below the dead frontier are decided
// — full, refused, and closed for good — so folding also runs ahead to the
// frontier without waiting for arrivals to cross them; under sustained
// overload that keeps fold progress level with the frontier and lets the
// ledger reclaim the dead region (notePrunable) instead of carrying an
// ever-growing backlog of frozen counters. Concurrent callers race
// benignly: the atomic fast path skips closed regions, the recheck under
// mu guarantees each window is recorded exactly once (nt == lastClosed+1
// always), and a caller with an old arrival (w already closed) is a no-op
// — its window's count was frozen when the merge happened, which is the
// documented bounded-staleness of concurrent statistical mode.
func (g *statGate) closeUpTo(w int64, led *shardedLedger) {
	if f := g.deadFrontier.Load(); f > w {
		w = f
	}
	if g.lastClosed.Load() >= w-1 {
		return
	}
	g.mu.Lock()
	last := g.lastClosed.Load()
	if last >= w-1 {
		g.mu.Unlock()
		return
	}
	for i := last + 1; i < w; i++ {
		g.stat.RecordInterval(led.count(i))
	}
	g.lastClosed.Store(w - 1)
	// Folded windows are never read again; let the ledger reclaim them
	// (minus its safety margin) so long overloaded runs stay O(1) per op.
	led.notePrunable(w)
	g.snap.Store(g.stat.Snapshot())
	g.mu.Unlock()
}

// wouldAdmit reports whether an interval of size k passes the published Q
// bound. Lock-free and allocation-free: one atomic load plus the snapshot's
// histogram walk.
func (g *statGate) wouldAdmit(k int) bool {
	return g.snap.Load().WouldAdmit(k)
}

// q returns the published violation-probability estimate.
func (g *statGate) q() float64 {
	return g.snap.Load().Q()
}

// resetWindows forgets window-close progress (System.Reset: the ledger is
// wiped, so folding restarts from window 0; the interval history itself is
// kept, matching the historical Reset semantics). The dead frontier rests
// on ledger counts, so it is dropped with them.
func (g *statGate) resetWindows() {
	g.lastClosed.Store(-1)
	g.deadFrontier.Store(0)
}
