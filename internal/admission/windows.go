package admission

import (
	"sync"
	"sync/atomic"
)

const (
	windowShardBits  = 6
	windowShardCount = 1 << windowShardBits

	// Counters are allocated in chunks of 64 consecutive keys: one map
	// entry and one allocation cover chunkSize keys, so map traffic (hash,
	// assign, prune scans) is paid once per chunk instead of once per key,
	// and the frontier's working set is one or two chunks.
	chunkBits = 6
	chunkSize = 1 << chunkBits

	// shardPruneLen bounds per-shard map growth on long-running servers:
	// once a shard tracks this many chunks, chunks wholly below the
	// margin-padded floor are dropped. Later scans wait until the map has
	// doubled since the last one (pruneAt).
	shardPruneLen = 512
	// reclaimMargin is the number of windows kept below the floor: it covers
	// requests stamped late, across connections or shards.
	reclaimMargin = 1024

	// counterCacheSize is the direct-mapped cache of recently resolved
	// chunks. Lookups cluster around the admission frontier, so one or two
	// chunks absorb almost every one; the cache turns those into one atomic
	// pointer load plus an index instead of a shard mutex + map access.
	counterCacheSize = 256
)

// counterChunk holds the counters for chunkSize consecutive keys: chunk
// ck covers keys ck·chunkSize … ck·chunkSize+63.
type counterChunk struct {
	ck     int64
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

// Windows is the one sparse store of per-T-window counts: the engine's
// S-bound ledger (one counter per window) and the tenant gate's arrival and
// usage counts (one per tenant and window) all live in one. Keys are
// window·stride + slot. Counters are atomics in chunks behind a 64-way
// sharded map and a direct-mapped cache, so independent updates proceed in
// parallel and a hot lookup is one atomic load and a compare.
//
// Reclaim has one rule. The owner raises one floor (RaiseFloor) to the
// lowest window any later request can still start from; once a shard's
// map has doubled since its last scan, chunks wholly below
// floor − reclaimMargin are dropped. Only a request stamped more than
// reclaimMargin windows before the floor can touch a dropped window, and
// it sees a fresh counter there.
//
// The zero value is a store with stride 1.
type Windows struct {
	// front is the most recently resolved chunk, first in the struct so an
	// owner can keep it beside its own hottest word (the ledger's hint).
	// Purely a first lookup level over cache, with the same staleness
	// argument.
	front atomic.Pointer[counterChunk]

	floor  atomic.Int64
	stride int64 // keys per window; 0 means 1

	// cache short-circuits chunk resolution, indexed by chunk modulo
	// counterCacheSize (direct-mapped, last publisher wins). It holds the
	// canonical pointers from the shard maps and never creates a chunk, so
	// racing publishers for one index publish the same pointer. A stale
	// entry can only be a dropped chunk, and dropped chunks lie below the
	// floor, which no later request reaches, so a hit never splits a live
	// counter.
	cache [counterCacheSize]atomic.Pointer[counterChunk]

	shards [windowShardCount]windowShard
}

// RaiseFloor lifts the reclaim floor to window w; it never moves back.
func (s *Windows) RaiseFloor(w int64) {
	for cur := s.floor.Load(); w > cur && !s.floor.CompareAndSwap(cur, w); cur = s.floor.Load() {
	}
}

// Counter returns the counter for key, creating its chunk if needed. The
// fast path — key in the front chunk — is one atomic load and a compare;
// the cache and the shard map are counterSlow's.
func (s *Windows) Counter(key int64) *atomic.Int32 {
	if p := s.front.Load(); p != nil && p.ck == key>>chunkBits {
		return &p.counts[key&(chunkSize-1)]
	}
	return s.counterSlow(key)
}

// counterSlow resolves key's chunk through the cache, else through the
// shard map (creating it if needed) and publishes it to the cache; either
// way it becomes the front chunk. The shard lock is held only for the map
// access; the counter itself is operated on with atomics.
func (s *Windows) counterSlow(key int64) *atomic.Int32 {
	ck := key >> chunkBits
	if p := s.cache[uint64(ck)&(counterCacheSize-1)].Load(); p != nil && p.ck == ck {
		s.front.Store(p)
		return &p.counts[key&(chunkSize-1)]
	}
	sh := &s.shards[uint64(ck)&(windowShardCount-1)]
	sh.mu.Lock()
	if sh.chunks == nil {
		sh.chunks = make(map[int64]*counterChunk)
	}
	p, ok := sh.chunks[ck]
	if !ok {
		if len(sh.chunks) >= max(shardPruneLen, sh.pruneAt) {
			// A chunk is reclaimable only when every key in it sits below
			// the margin-padded floor.
			floorCk := ((s.floor.Load() - reclaimMargin) * max(s.stride, 1)) >> chunkBits
			sh.scanned += len(sh.chunks)
			for k := range sh.chunks {
				if k < floorCk {
					delete(sh.chunks, k)
				}
			}
			sh.pruneAt = 2 * len(sh.chunks)
		}
		p = &counterChunk{ck: ck}
		sh.chunks[ck] = p
	}
	sh.mu.Unlock()
	s.cache[uint64(ck)&(counterCacheSize-1)].Store(p)
	s.front.Store(p)
	return &p.counts[key&(chunkSize-1)]
}

// Count returns the value recorded for key. It creates no state (the
// statistical fold walks cold windows).
func (s *Windows) Count(key int64) int {
	ck := key >> chunkBits
	p := s.cache[uint64(ck)&(counterCacheSize-1)].Load()
	if p == nil || p.ck != ck {
		sh := &s.shards[uint64(ck)&(windowShardCount-1)]
		sh.mu.Lock()
		p = sh.chunks[ck]
		sh.mu.Unlock()
	}
	if p == nil {
		return 0
	}
	return int(p.counts[key&(chunkSize-1)].Load())
}

// Census returns the chunks the store holds and the largest value in any
// of them (test observer: the S-bound and the reclaim bound).
func (s *Windows) Census() (chunks, maxCount int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		chunks += len(sh.chunks)
		for _, p := range sh.chunks {
			for j := range p.counts {
				maxCount = max(maxCount, int(p.counts[j].Load()))
			}
		}
		sh.mu.Unlock()
	}
	return chunks, maxCount
}
