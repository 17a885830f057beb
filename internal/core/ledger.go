package core

import (
	"sync"
	"sync/atomic"
)

const (
	windowShardBits  = 6
	windowShardCount = 1 << windowShardBits

	// Counters are allocated in chunks of 64 consecutive windows: one map
	// entry and one allocation cover chunkSize windows, so map traffic
	// (hash, assign, prune scans) is paid once per chunk instead of once
	// per window, and the frontier's working set is one or two chunks.
	chunkBits = 6
	chunkSize = 1 << chunkBits

	// shardPruneLen bounds per-shard map growth on long-running servers:
	// once a shard tracks this many chunks (chunkSize windows each),
	// chunks entirely below the reclaim floor — the admission frontier in
	// deterministic mode, the statistical gate's fold progress in ε > 0
	// mode (notePrunable); both only move forward — are dropped. Later
	// scans wait until the map has doubled since the last one (pruneAt).
	shardPruneLen    = 512
	shardPruneMargin = 1024 // margin in windows kept below the floor
)

// counterChunk holds the admission counters for chunkSize consecutive
// windows (chunk index ck covers windows ck·chunkSize … ck·chunkSize+63).
type counterChunk struct {
	counts [chunkSize]atomic.Int32
}

type windowShard struct {
	mu     sync.Mutex
	chunks map[int64]*counterChunk
	// pruneAt is the map size that triggers the next prune scan: twice the
	// chunks a scan left behind, so a floor that frees nothing costs one
	// scan per doubling, not one per new chunk.
	pruneAt int
	scanned int // chunks visited by prune scans (test hook)
}

// counterCacheSize is the direct-mapped cache of recently resolved counter
// chunks. Submissions cluster around the admission frontier, so one or two
// chunks absorb almost every lookup; the cache turns those into one atomic
// pointer load plus an index instead of a shard mutex + map access.
const counterCacheSize = 256

// cachedChunk pins one resolved (chunk index, chunk) pair. The chunk
// pointer is the canonical one stored in the shard map — the cache never
// creates chunks, so two racing publishers for the same index always
// publish the same pointer and per-window CAS accounting stays sound.
type cachedChunk struct {
	ck int64
	p  *counterChunk
}

// shardedLedger is the per-T-window admission accounting behind the engine
// (§III: at most S requests retrieved per interval) and its single source
// of truth for window counts: they live in sharded per-window atomic
// counters. A request reserves a slot with a CAS loop, so independent
// submissions — different windows, or free capacity in the same window —
// proceed in parallel while the per-window count provably never exceeds
// the limit (the test suite enforces this under -race). A frontier hint
// remembers the earliest window that was ever observed full, so admission
// under overload is O(1) amortized instead of scanning full windows one by
// one.
type shardedLedger struct {
	// hint is the earliest window not yet observed full; windows below it
	// are skipped on the admission fast path. It only advances, and it is
	// advisory: per-window correctness comes from the CAS reservation, the
	// hint only short-circuits the scan under sustained overload.
	hint atomic.Int64

	// front is the most recently resolved chunk, kept beside the hint so
	// the admission scan's two per-request ledger reads — frontier and the
	// frontier window's counter — share one cache line. Purely a first
	// lookup level over the mapped cache: it holds canonical chunk
	// pointers only, so the staleness argument below applies unchanged.
	front atomic.Pointer[cachedChunk]

	// prunable is the statistical gate's fold progress (notePrunable):
	// windows below it were merged into the interval history and are never
	// read again. It feeds the same reclaim floor as the hint — in ε > 0
	// mode the hint stays 0 (statistical admission keeps its own frontier
	// in the gate), so without this floor the shard maps would grow with
	// the run and every prune scan would walk them in vain.
	prunable atomic.Int64

	shards [windowShardCount]windowShard

	// cache short-circuits chunk resolution for hot windows, indexed by
	// chunk modulo counterCacheSize (direct-mapped, last publisher wins).
	// A stale entry can only describe a pruned chunk — pruning only drops
	// chunks below the reclaim floor, which are never read again — so a
	// hit never resurrects state the map has forgotten about a live chunk.
	cache [counterCacheSize]atomic.Pointer[cachedChunk]
}

// counter returns the admission counter for window w, creating its chunk
// if needed. The fast path — chunk already cached — is small enough to
// inline into tryReserve/add/release; resolution through the shard map
// lives in counterSlow.
func (l *shardedLedger) counter(w int64) *atomic.Int32 {
	ck := w >> chunkBits
	if e := l.front.Load(); e != nil && e.ck == ck {
		return &e.p.counts[w&(chunkSize-1)]
	}
	if e := l.cache[uint64(ck)&(counterCacheSize-1)].Load(); e != nil && e.ck == ck {
		l.front.Store(e)
		return &e.p.counts[w&(chunkSize-1)]
	}
	return l.counterSlow(w, ck)
}

// counterSlow resolves (and creates if needed) w's chunk through the shard
// map, then publishes it to the cache. The shard lock is held only for the
// map access; the counter itself is operated on with atomics.
func (l *shardedLedger) counterSlow(w, ck int64) *atomic.Int32 {
	slot := &l.cache[uint64(ck)&(counterCacheSize-1)]
	sh := &l.shards[uint64(ck)&(windowShardCount-1)]
	sh.mu.Lock()
	if sh.chunks == nil {
		sh.chunks = make(map[int64]*counterChunk)
	}
	p, ok := sh.chunks[ck]
	if !ok {
		if len(sh.chunks) >= max(shardPruneLen, sh.pruneAt) {
			floor := l.hint.Load()
			if pr := l.prunable.Load(); pr > floor {
				floor = pr
			}
			// A chunk is reclaimable only when every window in it sits
			// below the margin-padded floor.
			floorCk := (floor - shardPruneMargin) >> chunkBits
			sh.scanned += len(sh.chunks)
			for k := range sh.chunks {
				if k < floorCk {
					delete(sh.chunks, k)
				}
			}
			sh.pruneAt = 2 * len(sh.chunks)
		}
		p = new(counterChunk)
		sh.chunks[ck] = p
	}
	sh.mu.Unlock()
	e := &cachedChunk{ck: ck, p: p}
	slot.Store(e)
	l.front.Store(e)
	return &p.counts[w&(chunkSize-1)]
}

// count returns the admitted slots currently recorded for window w. It
// creates no state for w (statGate.closeUpTo walks cold windows).
func (l *shardedLedger) count(w int64) int {
	ck := w >> chunkBits
	if e := l.cache[uint64(ck)&(counterCacheSize-1)].Load(); e != nil && e.ck == ck {
		return int(e.p.counts[w&(chunkSize-1)].Load())
	}
	sh := &l.shards[uint64(ck)&(windowShardCount-1)]
	sh.mu.Lock()
	p := sh.chunks[ck]
	sh.mu.Unlock()
	if p == nil {
		return 0
	}
	return int(p.counts[w&(chunkSize-1)].Load())
}

// tryReserve atomically claims n admission slots in window w. During a
// mask transition concurrent callers may briefly hold different limits;
// each CAS enforces the limit its caller observed, so the count never
// exceeds the largest concurrently valid guarantee.
func (l *shardedLedger) tryReserve(w int64, n, limit int) bool {
	c := l.counter(w)
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
	c := l.counter(w)
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
func (l *shardedLedger) add(w int64, n int) { l.counter(w).Add(int32(n)) }

// release returns n slots claimed by tryReserve/reserveUpTo/add (the
// scheduler could not serve the request at the reserved time).
func (l *shardedLedger) release(w int64, n int) { l.counter(w).Add(int32(-n)) }

// noteFull records that the window below next was observed full. The hint
// is a "no admission possible below" *prefix*, so a full window may only
// extend it contiguously: a request can observe a full window far ahead
// of the frontier (its admit time jumps over windows when its replica
// devices are busy) while the skipped windows still have capacity for
// other blocks. Advancing past those would starve them, so only a
// failure at the frontier window itself extends it — the scan reports a
// full window w as noteFull(w+1), so the contiguous case is next == h+1.
func (l *shardedLedger) noteFull(next int64) {
	if h := l.hint.Load(); next == h+1 {
		l.hint.CompareAndSwap(h, next)
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
			return
		}
	}
}

// notePrunable raises the reclaim floor: windows below w were folded into
// the statistical interval history and will never be read again. CAS-max so
// racing merges cannot move it backwards.
func (l *shardedLedger) notePrunable(w int64) {
	for {
		cur := l.prunable.Load()
		if w <= cur || l.prunable.CompareAndSwap(cur, w) {
			return
		}
	}
}

// frontier returns the earliest window admission scans may start from.
func (l *shardedLedger) frontier() int64 { return l.hint.Load() }

// maxCount returns the largest count recorded for any tracked window (test
// hook; after quiescence it never exceeds S in deterministic mode).
func (l *shardedLedger) maxCount() int {
	max := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for _, p := range sh.chunks {
			for j := range p.counts {
				if v := int(p.counts[j].Load()); v > max {
					max = v
				}
			}
		}
		sh.mu.Unlock()
	}
	return max
}

// reset drops all window state.
func (l *shardedLedger) reset() {
	l.front.Store(nil)
	for i := range l.cache {
		l.cache[i].Store(nil)
	}
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.chunks = nil
		sh.pruneAt = 0
		sh.mu.Unlock()
	}
	l.hint.Store(0)
	l.prunable.Store(0)
}
