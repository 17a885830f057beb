// Package pack is the file-backed storage engine behind the QoS layer: an
// append-only volume file per device holding CRC-checksummed needle
// records, with an in-memory needle index rebuilt by a tail-validating
// scan on startup.
//
// The design follows the classic pack/needle (a.k.a. haystack/bitcask)
// shape, sized so the declustered c-way replica layout of the QoS engine
// maps onto real per-device I/O:
//
//   - One volume file per device. A block PUT on a replica set becomes one
//     appended needle per replica device, a GET one pread on the chosen
//     device, so device-level QoS decisions exercise device-level media.
//   - Needles are self-describing records (magic / block / length / CRC-32C
//     header, then the payload; see needle.go). Every read re-verifies the
//     checksum, so media corruption surfaces as an error the caller can
//     feed to the health subsystem instead of silently returning garbage.
//   - The block → (offset, length) index lives in memory only. On startup
//     the volume is scanned needle by needle; the scan stops at the first
//     record that fails validation and truncates the file there (the torn
//     tail of a crashed append), so the index invariant — every indexed
//     needle is fully on disk and checksums — is re-established without a
//     separate journal.
//   - Durability is group-commit: appends are acknowledged only once an
//     fsync covers them, and one fsync covers every append that landed in
//     the same sync window (Options.SyncInterval / Options.SyncBytes), so
//     the per-PUT fsync cost amortizes across concurrent writers.
//   - Superseded needles (block overwrites) stay in the file as garbage
//     until a compaction rewrites the live set and swaps the volume in
//     place: Compact on demand, or — on a synced store — the background
//     compactor, which takes one volume at a time once its garbage reaches
//     a third of its live bytes (and at least 1 MiB), so no volume grows
//     past about 1.33× what it holds.
//
// All Store methods are safe for concurrent use.
package pack

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors callers branch on. Anything else coming out of Get/Put
// is an I/O or corruption fault and should be treated as a media error.
var (
	// ErrNotFound reports a block with no needle on the device.
	ErrNotFound = errors.New("pack: block not found")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("pack: store closed")
)

// Default tuning (see Options).
const (
	DefaultSyncInterval = 2 * time.Millisecond
	DefaultSyncBytes    = 256 << 10
)

// Options tunes a Store. The zero value selects the documented defaults.
type Options struct {
	// SyncInterval is the group-commit window: appends are acknowledged
	// when the periodic fsync pass covers them, at most this long after
	// they landed. Default 2ms.
	SyncInterval time.Duration
	// SyncBytes triggers an early fsync pass once this many unsynced bytes
	// have accumulated across the store, so a burst of large writes is not
	// held for the full interval. Default 256 KiB.
	SyncBytes int
	// NoSync acknowledges appends without waiting for fsync (benchmarks,
	// throwaway test stores). A crash loses unsynced appends — exactly the
	// data the recovery scan truncates.
	NoSync bool
}

func (o *Options) applyDefaults() {
	if o.SyncInterval <= 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.SyncBytes <= 0 {
		o.SyncBytes = DefaultSyncBytes
	}
}

// Store is a set of per-device volumes under one directory.
type Store struct {
	dir  string
	opts Options
	vols []*volume

	dirty    atomic.Int64 // unsynced bytes since the last sync pass
	kick     chan struct{}
	compactq chan *volume // syncer → compactor hand-off (unbuffered)
	stop     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
}

// Open creates or reopens a store of `devices` volumes under dir,
// recovering each volume's index with the tail-validating scan.
func Open(dir string, devices int, opts Options) (*Store, error) {
	if devices < 1 {
		return nil, fmt.Errorf("pack: need >= 1 device, got %d", devices)
	}
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		vols:     make([]*volume, devices),
		kick:     make(chan struct{}, 1),
		compactq: make(chan *volume),
		stop:     make(chan struct{}),
	}
	for d := range s.vols {
		v, err := openVolume(filepath.Join(dir, fmt.Sprintf("vol-%04d.pack", d)))
		if err != nil {
			for _, prev := range s.vols[:d] {
				prev.f.Close()
			}
			return nil, err
		}
		s.vols[d] = v
	}
	if !opts.NoSync {
		// Make the volume files themselves durable directory entries before
		// acknowledging anything stored in them.
		if err := syncDir(dir); err != nil {
			s.Close()
			return nil, err
		}
		s.wg.Add(2)
		go s.syncLoop()
		go s.compactLoop()
	}
	return s, nil
}

// Devices returns the number of volumes.
func (s *Store) Devices() int { return len(s.vols) }

func (s *Store) vol(dev int) (*volume, error) {
	if dev < 0 || dev >= len(s.vols) {
		return nil, fmt.Errorf("pack: device %d out of range [0,%d)", dev, len(s.vols))
	}
	return s.vols[dev], nil
}

// Put appends a needle for block on device dev and, unless NoSync is set,
// blocks until a group fsync covers it: when Put returns nil the payload
// is durable on that device. It is PutAll over one device.
func (s *Store) Put(dev int, block int64, payload []byte) error {
	devs, errs := [1]int{dev}, [1]error{}
	s.PutAll(devs[:], block, payload, errs[:])
	return errs[0]
}

// PutAll stores block's payload on every device in devs: it appends the
// needle to each volume first and only then waits, so one group commit —
// whose sync pass fsyncs the dirty volumes concurrently — covers all the
// replicas instead of one commit each. errs must be at least as long as
// devs; errs[i] receives devs[i]'s outcome, nil meaning the payload is
// durable on that device (with NoSync: appended). wrote counts the nils.
// It is AppendAll then WaitAll.
func (s *Store) PutAll(devs []int, block int64, payload []byte, errs []error) (wrote int) {
	var p Pending
	s.AppendAll(&p, devs, block, payload, errs)
	return s.WaitAll(&p, errs)
}

// mark is where one append ended on its volume, and in which compaction
// generation; v is nil when the append failed.
type mark struct {
	v   *volume
	end int64
	gen uint64
}

// Pending is one PutAll between its halves: AppendAll records a mark per
// device and WaitAll parks on them. The caller owns it; it may be moved,
// and reused once WaitAll has returned. The zero value is ready.
type Pending struct {
	n     int
	marks [4]mark
	more  []mark // marks past the fourth, for replica sets wider than four
}

func (p *Pending) mark(i int) *mark {
	if i < len(p.marks) {
		return &p.marks[i]
	}
	return &p.more[i-len(p.marks)]
}

// AppendAll is PutAll's first half: it appends block's needle to every
// device in devs, counts the appended bytes toward SyncBytes once, and
// records in p where each append ended. errs must be at least as long as
// devs; errs[i] receives devs[i]'s append error. The appends are visible
// to Get at once but durable only once WaitAll(p, errs) says so.
func (s *Store) AppendAll(p *Pending, devs []int, block int64, payload []byte, errs []error) {
	p.n = len(devs)
	if extra := p.n - len(p.marks); extra > 0 {
		p.more = append(p.more[:0], make([]mark, extra)...)
	}
	var appended int64
	for i, dev := range devs {
		m := p.mark(i)
		*m = mark{}
		v, err := s.vol(dev)
		if err == nil && len(payload) > DefaultMaxPayload {
			err = fmt.Errorf("%w (%d > %d bytes)", ErrTooLarge, len(payload), DefaultMaxPayload)
		}
		if err == nil {
			if m.end, m.gen, err = v.append(block, payload); err == nil {
				m.v = v
				appended += int64(needleHeaderSize + len(payload))
			}
		}
		errs[i] = err
	}
	if !s.opts.NoSync && appended > 0 && s.dirty.Add(appended) >= int64(s.opts.SyncBytes) {
		s.kickSync()
	}
}

// WaitAll is PutAll's second half: it parks until a group commit covers
// every append AppendAll recorded in p, and sets errs[i] — errs as
// AppendAll left it — to that device's outcome, nil meaning durable (with
// NoSync: appended). wrote counts the nils.
func (s *Store) WaitAll(p *Pending, errs []error) (wrote int) {
	for i := 0; i < p.n; i++ {
		m := p.mark(i)
		if m.v == nil {
			continue
		}
		if s.opts.NoSync {
			m.v.markSynced(m.end, m.gen, nil)
		} else if errs[i] = m.v.waitSynced(m.end, m.gen); errs[i] != nil {
			continue
		}
		wrote++
	}
	return wrote
}

// Get appends block's payload on device dev to dst and returns the
// extended slice. On any error dst is returned with its length unchanged.
// The payload's checksum is re-verified on every read; a mismatch is a
// media fault, not ErrNotFound.
func (s *Store) Get(dev int, block int64, dst []byte) ([]byte, error) {
	v, err := s.vol(dev)
	if err != nil {
		return dst, err
	}
	return v.get(block, dst)
}

// Has reports whether device dev holds a needle for block.
func (s *Store) Has(dev int, block int64) bool {
	v, err := s.vol(dev)
	if err != nil {
		return false
	}
	return v.has(block)
}

// Blocks appends the blocks stored on device dev to dst (unordered
// snapshot) — the rebuild scheduler's work-list feed.
func (s *Store) Blocks(dev int, dst []int64) []int64 {
	v, err := s.vol(dev)
	if err != nil {
		return dst
	}
	return v.blocks(dst)
}

// copyBufPool recycles the transfer buffer Copy stages payloads through.
var copyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Copy replicates one block's payload from device `from` onto every device
// in to — read once, then one PutAll with its durability — the primitive
// reprotect/resilver move bytes with. The error joins the read error, or
// every target's write error.
func (s *Store) Copy(from int, to []int, block int64) error {
	buf := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(buf)
	b, err := s.Get(from, block, (*buf)[:0])
	*buf = b[:0]
	if err != nil {
		return err
	}
	errs := make([]error, len(to))
	s.PutAll(to, block, b, errs)
	return errors.Join(errs...)
}

// DeviceStats reports one volume's space accounting.
type DeviceStats struct {
	Blocks  int   // live needles (index size)
	Bytes   int64 // file size
	Garbage int64 // bytes held by superseded needles
}

// Stats snapshots device dev's space accounting.
func (s *Store) Stats(dev int) DeviceStats {
	v, err := s.vol(dev)
	if err != nil {
		return DeviceStats{}
	}
	return v.stats()
}

// Sync forces a full fsync pass and returns the first volume sync error,
// if any (sync errors are sticky: a volume whose fsync failed refuses
// further acknowledgements).
func (s *Store) Sync() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.syncPass()
	for _, v := range s.vols {
		if err := v.syncError(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the syncer and the compactor (abandoning a compaction in
// flight), flushes every volume, and closes the files. Puts acknowledged
// before Close returns are durable.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if !s.opts.NoSync {
		close(s.stop)
		s.wg.Wait()
	}
	var first error
	for _, v := range s.vols {
		// Setting closed under the volume lock fences later appends and
		// compactions; the final fsync then covers everything that got in
		// before the fence, and the generation captured here stays current.
		v.mu.Lock()
		v.closed = true
		end := v.size
		gen := v.generation()
		v.mu.Unlock()
		var err error
		if !s.opts.NoSync {
			err = v.f.Sync()
		}
		v.markSynced(end, gen, err)
		if cerr := v.f.Close(); cerr != nil && first == nil {
			first = cerr
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// kickSync wakes the syncer early (the byte-threshold path). Non-blocking:
// a pending kick already guarantees a pass.
func (s *Store) kickSync() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// syncLoop is the group-commit pump: one fsync pass per SyncInterval tick
// (or early kick) covers every append that landed since the previous pass.
// After each pass it offers the compactor a volume that is due.
func (s *Store) syncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		case <-s.kick:
		}
		s.syncPass()
		s.offerCompaction()
	}
}

// syncPass fsyncs every volume with unsynced appends — concurrently, so a
// pass costs about one fsync rather than one per dirty volume — and
// advances each durable watermark, releasing the Puts waiting on it.
func (s *Store) syncPass() {
	s.dirty.Store(0)
	var wg sync.WaitGroup
	for _, v := range s.vols {
		if v.needsSync() {
			wg.Add(1)
			go func(v *volume) {
				defer wg.Done()
				v.syncIfDirty()
			}(v)
		}
	}
	wg.Wait()
}

// syncDir fsyncs a directory so renames and creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
