package pack

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// rec locates one live needle in the volume file.
type rec struct {
	off  int64  // file offset of the needle header
	size uint32 // payload length
}

// volume is one device's append-only pack file plus its in-memory index.
//
// Locking: mu guards the file handle, size, index, and garbage counter.
// Appends and compaction take it exclusively; gets — and the syncer's
// fsync — take it shared, so reads proceed during an fsync and the file
// handle can never be swapped (by compaction) under a syscall using it.
// The durable watermark (synced/syncErr/gen) lives under its own little
// mutex so Put waiters never hold mu while parked.
type volume struct {
	mu      sync.RWMutex
	f       *os.File
	path    string
	size    int64 // append end: every byte below is a valid indexed needle or garbage
	index   map[int64]rec
	garbage int64  // bytes held by superseded needles
	scratch []byte // append-side encode buffer, guarded by mu
	closed  bool

	compacting    atomic.Int32 // compactions holding or waiting for mu
	compactFailed atomic.Bool  // the background compactor leaves this volume alone

	sm      sync.Mutex // guards the durable watermark; cond.L
	cond    *sync.Cond
	synced  int64  // bytes covered by fsync
	gen     uint64 // bumped by compaction: offsets below synced changed meaning
	syncErr error  // sticky: first fsync failure fails the volume fail-stop
}

func openVolume(path string) (*volume, error) {
	// A compaction cut short by a crash leaves its temp file behind; the
	// volume it was rewriting is still whole.
	if err := os.Remove(path + compactSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("pack: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	v := &volume{f: f, path: path, index: make(map[int64]rec)}
	v.cond = sync.NewCond(&v.sm)
	if err := v.recover(); err != nil {
		f.Close()
		return nil, err
	}
	v.synced = v.size // everything that survived the scan is on disk
	return v, nil
}

// recover rebuilds the index by scanning needles from offset zero and
// truncates the file at the first record that fails validation — the torn
// tail of an append cut short by a crash. Every record before the failure
// point checksummed, so the re-established invariant is: every byte below
// size belongs to a fully-written needle.
func (v *volume) recover() error {
	st, err := v.f.Stat()
	if err != nil {
		return fmt.Errorf("pack: %w", err)
	}
	fileSize := st.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(v.f, 0, fileSize), 1<<16)
	var (
		off     int64
		hdr     [needleHeaderSize]byte
		payload []byte
	)
	for off < fileSize {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		if string(hdr[0:4]) != needleMagic {
			break
		}
		length := binary.LittleEndian.Uint32(hdr[12:16])
		if length > DefaultMaxPayload {
			break
		}
		total := int64(needleHeaderSize) + int64(length)
		if total > fileSize-off {
			break
		}
		if int(length) > cap(payload) {
			payload = make([]byte, length)
		}
		p := payload[:length]
		if _, err := io.ReadFull(r, p); err != nil {
			break
		}
		crc := crc32.Update(0, castagnoli, hdr[4:16])
		crc = crc32.Update(crc, castagnoli, p)
		if crc != binary.LittleEndian.Uint32(hdr[16:20]) {
			break
		}
		block := int64(binary.LittleEndian.Uint64(hdr[4:12]))
		if old, ok := v.index[block]; ok {
			v.garbage += int64(needleHeaderSize) + int64(old.size)
		}
		v.index[block] = rec{off: off, size: length}
		off += total
	}
	v.size = off
	if off < fileSize {
		// Drop the torn tail durably before any new append lands after it.
		if err := v.f.Truncate(off); err != nil {
			return fmt.Errorf("pack: truncate %s: %w", filepath.Base(v.path), err)
		}
		if err := v.f.Sync(); err != nil {
			return fmt.Errorf("pack: %w", err)
		}
	}
	return nil
}

// append writes the needle at the current end and indexes it, returning
// the new append end for waitSynced together with the volume generation
// the end belongs to — both captured while mu is held, so a compaction
// (which needs mu exclusively) cannot slide in between and make the pair
// inconsistent. A failed write does not advance size: the torn bytes sit
// past the end, are overwritten by the next append, and would be
// truncated by recovery.
func (v *volume) append(block int64, payload []byte) (end int64, gen uint64, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return 0, 0, ErrClosed
	}
	v.scratch = AppendNeedle(v.scratch[:0], block, payload)
	if _, err := v.f.WriteAt(v.scratch, v.size); err != nil {
		return 0, 0, fmt.Errorf("pack: write %s: %w", filepath.Base(v.path), err)
	}
	if old, ok := v.index[block]; ok {
		v.garbage += int64(needleHeaderSize) + int64(old.size)
	}
	v.index[block] = rec{off: v.size, size: uint32(len(payload))}
	v.size += int64(len(v.scratch))
	return v.size, v.generation(), nil
}

// generation reads the compaction generation. Callers holding mu (even
// shared) observe a stable value: compaction bumps gen only while holding
// mu exclusively.
func (v *volume) generation() uint64 {
	v.sm.Lock()
	defer v.sm.Unlock()
	return v.gen
}

// get reads and re-validates block's needle, appending the payload to dst.
func (v *volume) get(block int64, dst []byte) ([]byte, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	r, ok := v.index[block]
	if !ok {
		return dst, ErrNotFound
	}
	total := needleHeaderSize + int(r.size)
	start := len(dst)
	dst = grow(dst, total)
	buf := dst[start : start+total]
	if _, err := v.f.ReadAt(buf, r.off); err != nil {
		return dst[:start], fmt.Errorf("pack: read %s: %w", filepath.Base(v.path), err)
	}
	got, payload, _, err := DecodeNeedle(buf, int(r.size))
	if err != nil {
		return dst[:start], fmt.Errorf("pack: %s block %d at %d: %w", filepath.Base(v.path), block, r.off, err)
	}
	if got != block {
		return dst[:start], fmt.Errorf("pack: %s block %d at %d: %w (needle holds block %d)",
			filepath.Base(v.path), block, r.off, ErrChecksum, got)
	}
	// Shift the payload over its header; forward copy handles the overlap.
	copy(dst[start:], payload)
	return dst[:start+len(payload)], nil
}

func (v *volume) has(block int64) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.index[block]
	return ok
}

func (v *volume) blocks(dst []int64) []int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for b := range v.index {
		dst = append(dst, b)
	}
	return dst
}

func (v *volume) stats() DeviceStats {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return DeviceStats{Blocks: len(v.index), Bytes: v.size, Garbage: v.garbage}
}

// needsSync reports whether v holds appends no fsync covers yet. A volume
// being compacted is passed over: compaction holds mu for the whole
// rewrite, so an fsync queued behind it would hold up the sync pass — and
// every Put in the store — while the swap, which marks everything durable
// itself, needs no fsync from the syncer.
func (v *volume) needsSync() bool {
	if v.compacting.Load() > 0 {
		return false
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return !v.closed && v.size > v.syncedEnd()
}

// syncIfDirty fsyncs under the read lock (so compaction cannot swap the
// handle mid-syscall; concurrent gets proceed, appends briefly queue) and
// advances the durable watermark. The generation is captured under the
// same read lock as end: if a compaction commits between the RUnlock and
// markSynced, the stale (end, gen) pair is discarded there rather than
// advancing the watermark past the rewritten (smaller) file.
func (v *volume) syncIfDirty() {
	if v.compacting.Load() > 0 {
		return // see needsSync; re-checked here, just before the lock
	}
	v.mu.RLock()
	end := v.size
	gen := v.generation()
	if v.closed || end <= v.syncedEnd() {
		v.mu.RUnlock()
		return
	}
	err := v.f.Sync()
	v.mu.RUnlock()
	v.markSynced(end, gen, err)
}

func (v *volume) syncedEnd() int64 {
	v.sm.Lock()
	defer v.sm.Unlock()
	return v.synced
}

func (v *volume) syncError() error {
	v.sm.Lock()
	defer v.sm.Unlock()
	return v.syncErr
}

// markSynced records that an fsync covered the file up to end (or that it
// failed — sticky, fail-stop) and wakes the Puts parked on the watermark.
// end is only meaningful in the generation it was captured in: if a
// compaction committed since, the offset describes the discarded file, so
// advancing the watermark with it would mark not-yet-fsynced bytes of the
// rewritten file durable. A stale pair is dropped — the compaction that
// invalidated it already set synced to cover everything live. Sync errors
// are recorded regardless of generation: fail-stop stays conservative.
func (v *volume) markSynced(end int64, gen uint64, err error) {
	v.sm.Lock()
	if err != nil {
		if v.syncErr == nil {
			v.syncErr = fmt.Errorf("pack: fsync %s: %w", filepath.Base(v.path), err)
		}
	} else if gen == v.gen && end > v.synced {
		v.synced = end
	}
	v.sm.Unlock()
	v.cond.Broadcast()
}

// waitSynced parks until the durable watermark covers end, where (end,
// gen) is the pair append returned. A compaction generation bump also
// releases the wait: compaction only commits after every live needle —
// including the one this Put appended — is fsynced in the rewritten file,
// so crossing a generation is itself a durability proof (and end, an
// old-file offset, no longer means anything). gen must come from append's
// critical section, not be re-read here: a compaction finishing between
// append and this call would otherwise leave the waiter parked on an
// old-file offset under the post-bump generation, waiting forever.
func (v *volume) waitSynced(end int64, gen uint64) error {
	v.sm.Lock()
	defer v.sm.Unlock()
	for v.syncErr == nil && v.gen == gen && v.synced < end {
		v.cond.Wait()
	}
	return v.syncErr
}

// grow extends b by n bytes in place when capacity allows, reallocating
// with headroom otherwise (append(b, make(...)...) would allocate the
// temporary every call).
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*(len(b)+n))
	copy(nb, b)
	return nb
}
