package admission

import (
	"sync"
	"sync/atomic"
	"testing"
)

// shard0 is the key step that keeps a Windows key on shard 0 and moves it
// to that shard's next chunk.
const shard0 = windowShardCount * chunkSize

// TestWindowsShardPruning pushes the floor across far more chunks of one
// shard than the prune threshold, as sustained overload moves the ledger
// hint, and checks the old chunks are dropped.
func TestWindowsShardPruning(t *testing.T) {
	var s Windows
	for w := int64(0); w < shard0*(shardPruneLen+100); w += shard0 {
		s.Counter(w).Store(1)
		s.RaiseFloor(w)
	}
	if n := len(s.shards[0].chunks); n > shardPruneLen+1 {
		t.Errorf("shard 0 tracks %d chunks, prune threshold %d", n, shardPruneLen)
	}
}

// TestWindowsPruneBound walks shard 0 across 8,192 chunks (33 M windows)
// with the floor held back — at 0 for the first lag chunks, then trailing
// the newest window by lag chunks, as a far-future backlog above the ε > 0
// fold progress leaves the ledger. Chunks per shard stay within
// 2·max(shardPruneLen, live), and the prune scans visit O(chunks created)
// entries in all: a floor that frees nothing costs one scan per doubling
// of the map, not one per new chunk.
func TestWindowsPruneBound(t *testing.T) {
	var s Windows
	const created, lag = 8192, 1024 // in shard-0 chunks
	sh := &s.shards[0]
	for i := int64(0); i < created; i++ {
		w := i * shard0
		s.RaiseFloor(w - lag*shard0)
		s.Counter(w).Store(1)
		floorCk := (s.floor.Load() - reclaimMargin) >> chunkBits
		live := 0
		for k := range sh.chunks {
			if k >= floorCk {
				live++
			}
		}
		if n, bound := len(sh.chunks), 2*max(shardPruneLen, live); n > bound {
			t.Fatalf("chunk %d: shard holds %d chunks, %d live, bound %d", i, n, live, bound)
		}
	}
	if sh.scanned > 4*created {
		t.Errorf("prune scans visited %d chunks for %d created, want O(created) (<= %d)", sh.scanned, created, 4*created)
	}
}

// TestWindowsStridePruneBound walks a two-slot store (the gate's layout)
// across four million windows with the floor at the newest window, as
// NoteArrival leaves it. No shard holds more than shardPruneLen chunks,
// and once every shard has been through its first scans the walk
// allocates nothing but the chunks themselves (one per chunkSize keys):
// pruning reuses the map, with no churn.
func TestWindowsStridePruneBound(t *testing.T) {
	const stride, span, runs = 2, 10_000, 100
	s := Windows{stride: stride}
	var w int64
	walk := func(end int64) {
		for ; w < end; w++ {
			s.RaiseFloor(w)
			s.Counter(w*stride + 1).Add(1)
		}
	}
	walk(2 * shardPruneLen * windowShardCount * chunkSize / stride)
	allocs := testing.AllocsPerRun(runs, func() { walk(w + span) })
	for i := range s.shards {
		if n := len(s.shards[i].chunks); n > shardPruneLen {
			t.Fatalf("shard %d holds %d chunks, bound %d", i, n, shardPruneLen)
		}
	}
	if perRun := float64(span*stride) / chunkSize; allocs > perRun+1 {
		t.Errorf("%.1f allocs per %d-window walk, want the %.1f chunks only", allocs, span, perRun)
	}
}

// TestWindowsFloorStress races adders against floor raisers. The adders
// walk shard-0 chunks (whose chunk indices also collide in the
// direct-mapped cache) in phases: in phase k each of four goroutines adds 1
// to every counter of chunks k−1 … k+7, in its own rotated order, while two
// more goroutines raise the floor to chunk k's first window — the lowest
// window any later add starts from. Chunk k−1 is the late stamp the margin
// covers. Once a chunk's last phase is over, its counters in the store's
// map (not the cache, which would mask a dropped chunk) must hold their
// exact sums; and the shard must stay within its prune threshold.
func TestWindowsFloorStress(t *testing.T) {
	const adders, raisers, band, stride = 4, 2, 8, 4
	const phases = 3 * shardPruneLen
	var s Windows
	s.stride = stride
	// Slot 1 of window windowOf(c, j) is key c·shard0 + j + 1: chunk c of
	// shard 0, for j a multiple of stride below chunkSize.
	windowOf := func(c, j int64) int64 { return (c*shard0 + j) / stride }
	var phase atomic.Int64
	done := make(chan struct{})
	var rg sync.WaitGroup
	for range raisers {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
					s.RaiseFloor(windowOf(phase.Load(), 0))
				}
			}
		}()
	}
	sh := &s.shards[0]
	for k := int64(0); k < phases; k++ {
		phase.Store(k)
		s.RaiseFloor(windowOf(k, 0))
		var wg sync.WaitGroup
		for a := range int64(adders) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range int64(band + 1) {
					c := k - 1 + (i+2*a)%(band+1)
					for j := int64(0); c >= 0 && j < chunkSize; j += stride {
						s.Counter(windowOf(c, j)*stride + 1).Add(1)
					}
				}
			}()
		}
		wg.Wait()
		// Chunk k−1 has had its last add: phases k−1−band+1 … k.
		if c := k - 1; c >= 0 {
			want := int32(adders * (min(c, band-1) + 2))
			sh.mu.Lock()
			p := sh.chunks[c*windowShardCount]
			sh.mu.Unlock()
			for j := int64(0); j < chunkSize; j += stride {
				got := int32(0)
				if p != nil {
					got = p.counts[j+1].Load()
				}
				if got != want {
					close(done)
					rg.Wait()
					t.Fatalf("phase %d: window %d count %d, want %d", k, windowOf(c, j), got, want)
				}
			}
		}
	}
	close(done)
	rg.Wait()
	if sh.scanned == 0 {
		t.Error("no prune scan ran")
	}
	if n := len(sh.chunks); n > shardPruneLen {
		t.Errorf("shard 0 holds %d chunks, bound %d", n, shardPruneLen)
	}
}
