package pack

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// compactMinGarbage is the background compactor's floor: a volume is due
// once its garbage reaches a third of its live bytes and at least this
// much, so a volume stays under about 1.33× its live bytes and small
// stores are left alone. A third rather than a half trades compaction
// writes (three bytes rewritten per byte reclaimed, not two) for space
// (a volume holds about 1.17× its live bytes on average, not 1.25×).
const compactMinGarbage = 1 << 20

// compactSuffix names a volume's rewrite in progress; Open deletes one
// left behind by a crash.
const compactSuffix = ".compact"

// Compact rewrites device dev's volume with only its live needles —
// superseded records are dropped — and atomically swaps it in place
// (write to a temp file, fsync, rename over the volume, fsync the
// directory). Concurrent gets and puts on other devices proceed; the
// device being compacted blocks for the duration. Closing the store
// abandons the rewrite.
func (s *Store) Compact(dev int) error {
	if s.closed.Load() {
		return ErrClosed
	}
	v, err := s.vol(dev)
	if err != nil {
		return err
	}
	return v.compact(s.stop)
}

// CompactAll compacts every volume whose garbage exceeds minGarbage bytes.
func (s *Store) CompactAll(minGarbage int64) error {
	for d := range s.vols {
		if s.Stats(d).Garbage <= minGarbage {
			continue
		}
		if err := s.Compact(d); err != nil {
			return err
		}
	}
	return nil
}

// compactLoop is the background compactor of a synced store: it rewrites
// the volumes the syncer hands it, one at a time. A volume whose
// compaction fails is left as it was and not handed over again; its fault
// surfaces through its reads and Puts.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case v := <-s.compactq:
			if err := v.compact(s.stop); err != nil {
				v.compactFailed.Store(true)
			}
		}
	}
}

// offerCompaction hands the due volume with the most garbage to the
// compactor if it is idle; a busy compactor is not waited for.
func (s *Store) offerCompaction() {
	var due *volume
	var most int64
	for _, v := range s.vols {
		if g := v.compactDue(); g > most {
			due, most = v, g
		}
	}
	if due == nil {
		return
	}
	select {
	case s.compactq <- due:
	default:
	}
}

// compactDue returns v's garbage if the background trigger holds, else 0.
// It never waits for the volume lock.
func (v *volume) compactDue() int64 {
	if v.compacting.Load() > 0 || v.compactFailed.Load() || !v.mu.TryRLock() {
		return 0
	}
	defer v.mu.RUnlock()
	if v.closed || v.garbage < compactMinGarbage || 3*v.garbage < v.size-v.garbage {
		return 0
	}
	return v.garbage
}

func (v *volume) compact(stop <-chan struct{}) error {
	v.compacting.Add(1)
	defer v.compacting.Add(-1)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	tmpPath := v.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("pack: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	// Copy live needles in file order — sequential reads, and the rewritten
	// volume keeps the original append order.
	type ent struct {
		block int64
		r     rec
	}
	ents := make([]ent, 0, len(v.index))
	for b, r := range v.index {
		ents = append(ents, ent{b, r})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].r.off < ents[j].r.off })
	var (
		off      int64
		buf      []byte
		newIndex = make(map[int64]rec, len(ents))
	)
	for _, e := range ents {
		select {
		case <-stop:
			return fail(ErrClosed)
		default:
		}
		total := needleHeaderSize + int(e.r.size)
		if total > cap(buf) {
			buf = make([]byte, total)
		}
		b := buf[:total]
		if _, err := v.f.ReadAt(b, e.r.off); err != nil {
			return fail(fmt.Errorf("pack: compact read %s at %d: %w", filepath.Base(v.path), e.r.off, err))
		}
		// A live needle that no longer validates is real corruption, not
		// garbage — keep the volume as-is and surface it.
		if _, _, _, err := DecodeNeedle(b, DefaultMaxPayload); err != nil {
			return fail(fmt.Errorf("pack: compact %s block %d at %d: %w", filepath.Base(v.path), e.block, e.r.off, err))
		}
		if _, err := tmp.WriteAt(b, off); err != nil {
			return fail(fmt.Errorf("pack: compact write: %w", err))
		}
		newIndex[e.block] = rec{off: off, size: e.r.size}
		off += int64(total)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("pack: compact fsync: %w", err))
	}
	if err := os.Rename(tmpPath, v.path); err != nil {
		return fail(fmt.Errorf("pack: compact rename: %w", err))
	}
	if err := syncDir(filepath.Dir(v.path)); err != nil {
		// The rename itself succeeded; the swapped file is live. Report the
		// directory sync failure without abandoning the new handle.
		v.swapCompacted(tmp, newIndex, off)
		return err
	}
	v.swapCompacted(tmp, newIndex, off)
	return nil
}

// swapCompacted installs the rewritten file. Everything in it was fsynced
// before the rename, so the durable watermark jumps to the new size and
// the generation bump releases Puts waiting on old-file offsets (their
// needles were live, hence carried over and already durable).
func (v *volume) swapCompacted(tmp *os.File, newIndex map[int64]rec, size int64) {
	old := v.f
	v.f = tmp
	v.index = newIndex
	v.size = size
	v.garbage = 0
	v.sm.Lock()
	v.gen++
	v.synced = size
	v.sm.Unlock()
	v.cond.Broadcast()
	old.Close()
}
