package pack

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fastOpts keeps group-commit waits short in tests.
var fastOpts = Options{SyncInterval: time.Millisecond}

func payloadFor(block int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int64(i)*7 + block*13 + 5)
	}
	return b
}

func TestNeedleRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 512, 1 << 16} {
		payload := payloadFor(42, n)
		enc := AppendNeedle(nil, 42, payload)
		if len(enc) != needleHeaderSize+n {
			t.Fatalf("encoded size = %d, want %d", len(enc), needleHeaderSize+n)
		}
		block, got, total, err := DecodeNeedle(enc, 0)
		if err != nil {
			t.Fatalf("decode(%d bytes): %v", n, err)
		}
		if block != 42 || total != len(enc) || !bytes.Equal(got, payload) {
			t.Fatalf("decode(%d bytes) = block %d total %d, payload mismatch=%v",
				n, block, total, !bytes.Equal(got, payload))
		}
	}
}

func TestNeedleDecodeErrors(t *testing.T) {
	valid := AppendNeedle(nil, 7, payloadFor(7, 64))
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"short header", func(b []byte) []byte { return b[:needleHeaderSize-1] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadMagic},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrChecksum},
		{"flipped block byte", func(b []byte) []byte { b[5] ^= 1; return b }, ErrChecksum},
		{"oversized length", func(b []byte) []byte { b[12], b[13], b[14], b[15] = 0xFF, 0xFF, 0xFF, 0x7F; return b }, ErrTooLarge},
	}
	for _, tc := range cases {
		b := tc.mut(append([]byte(nil), valid...))
		if _, _, _, err := DecodeNeedle(b, 0); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 4, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for dev := 0; dev < 4; dev++ {
		for b := int64(0); b < 16; b++ {
			if err := s.Put(dev, b, payloadFor(b+int64(dev)*100, 100+int(b))); err != nil {
				t.Fatalf("put dev %d block %d: %v", dev, b, err)
			}
		}
	}
	var dst []byte
	for dev := 0; dev < 4; dev++ {
		for b := int64(0); b < 16; b++ {
			dst, err = s.Get(dev, b, dst[:0])
			if err != nil {
				t.Fatalf("get dev %d block %d: %v", dev, b, err)
			}
			if want := payloadFor(b+int64(dev)*100, 100+int(b)); !bytes.Equal(dst, want) {
				t.Fatalf("dev %d block %d: payload mismatch", dev, b)
			}
		}
	}
	if _, err := s.Get(0, 999, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing block: err = %v, want ErrNotFound", err)
	}
	if s.Has(0, 999) || !s.Has(0, 3) {
		t.Fatal("Has disagrees with contents")
	}
	if got := len(s.Blocks(1, nil)); got != 16 {
		t.Fatalf("Blocks(1) = %d entries, want 16", got)
	}
}

func TestStoreOverwriteAndPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, 5, payloadFor(1, 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, 5, payloadFor(2, 128)); err != nil {
		t.Fatal(err)
	}
	if g := s.Stats(1).Garbage; g != int64(needleHeaderSize+64) {
		t.Fatalf("garbage = %d, want %d", g, needleHeaderSize+64)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the index rebuild must surface the latest version only.
	s2, err := Open(dir, 2, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Get(1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payloadFor(2, 128)) {
		t.Fatal("reopened store served the superseded version")
	}
	if g := s2.Stats(1).Garbage; g != int64(needleHeaderSize+64) {
		t.Fatalf("garbage after reopen = %d, want %d", g, needleHeaderSize+64)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 8; b++ {
		if err := s.Put(0, b, payloadFor(b, 200)); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := s.Stats(0).Bytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "vol-0000.pack")
	// Torn tail: a header claiming 1000 payload bytes, followed by only 10.
	torn := AppendNeedle(nil, 99, payloadFor(99, 1000))[:needleHeaderSize+10]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats(0).Bytes; got != goodSize {
		t.Fatalf("recovered size = %d, want %d (torn tail not truncated)", got, goodSize)
	}
	if fi, _ := os.Stat(path); fi.Size() != goodSize {
		t.Fatalf("file size = %d, want %d", fi.Size(), goodSize)
	}
	if s2.Has(0, 99) {
		t.Fatal("torn needle got indexed")
	}
	for b := int64(0); b < 8; b++ {
		got, err := s2.Get(0, b, nil)
		if err != nil || !bytes.Equal(got, payloadFor(b, 200)) {
			t.Fatalf("block %d did not survive recovery: %v", b, err)
		}
	}
}

func TestRecoveryStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for b := int64(0); b < 4; b++ {
		offsets = append(offsets, s.Stats(0).Bytes)
		if err := s.Put(0, b, payloadFor(b, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Flip a payload byte inside record 2: the scan must keep 0 and 1 and
	// truncate from record 2 on (no framing to resync past a bad CRC).
	path := filepath.Join(dir, "vol-0000.pack")
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xAA}, offsets[2]+needleHeaderSize+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats(0).Bytes; got != offsets[2] {
		t.Fatalf("recovered size = %d, want %d", got, offsets[2])
	}
	for b := int64(0); b < 2; b++ {
		if _, err := s2.Get(0, b, nil); err != nil {
			t.Fatalf("block %d lost: %v", b, err)
		}
	}
	for b := int64(2); b < 4; b++ {
		if s2.Has(0, b) {
			t.Fatalf("block %d survived past the corrupt record", b)
		}
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for b := int64(0); b < 32; b++ {
			if err := s.Put(0, b, payloadFor(b+int64(round), 256)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.Stats(0)
	if before.Garbage == 0 {
		t.Fatal("expected garbage before compaction")
	}
	if err := s.Compact(0); err != nil {
		t.Fatal(err)
	}
	after := s.Stats(0)
	if after.Garbage != 0 || after.Bytes >= before.Bytes || after.Blocks != 32 {
		t.Fatalf("after compact: %+v (before %+v)", after, before)
	}
	for b := int64(0); b < 32; b++ {
		got, err := s.Get(0, b, nil)
		if err != nil || !bytes.Equal(got, payloadFor(b+3, 256)) {
			t.Fatalf("block %d wrong after compact: %v", b, err)
		}
	}
	// Writes keep working on the swapped file, and the result reopens.
	if err := s.Put(0, 100, payloadFor(100, 64)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get(0, 100, nil); err != nil || !bytes.Equal(got, payloadFor(100, 64)) {
		t.Fatalf("post-compact write lost: %v", err)
	}
	if got := s2.Stats(0).Blocks; got != 33 {
		t.Fatalf("blocks after reopen = %d, want 33", got)
	}
}

func TestCopy(t *testing.T) {
	s, err := Open(t.TempDir(), 3, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(0, 11, payloadFor(11, 333)); err != nil {
		t.Fatal(err)
	}
	if err := s.Copy(0, []int{1, 2}, 11); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 2} {
		got, err := s.Get(d, 11, nil)
		if err != nil || !bytes.Equal(got, payloadFor(11, 333)) {
			t.Fatalf("copied block wrong on device %d: %v", d, err)
		}
	}
	if err := s.Copy(0, []int{2, 7}, 11); err == nil || !s.Has(2, 11) {
		t.Fatalf("copy onto an out-of-range device: err = %v, want an error with device 2 still written", err)
	}
	if err := s.Copy(1, []int{2}, 12); !errors.Is(err, ErrNotFound) {
		t.Fatalf("copy from empty device: err = %v, want ErrNotFound", err)
	}
}

func TestDeviceBounds(t *testing.T) {
	s, err := Open(t.TempDir(), 2, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(2, 0, nil); err == nil {
		t.Fatal("put on device 2 of 2 succeeded")
	}
	if err := s.Put(-1, 0, nil); err == nil {
		t.Fatal("put on device -1 succeeded")
	}
	if _, err := s.Get(2, 0, nil); err == nil {
		t.Fatal("get on device 2 of 2 succeeded")
	}
	if s.Has(5, 0) || len(s.Blocks(5, nil)) != 0 {
		t.Fatal("Has/Blocks out of range not empty")
	}
}

func TestPayloadTooLarge(t *testing.T) {
	s, err := Open(t.TempDir(), 1, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(0, 0, make([]byte, DefaultMaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized put: err = %v, want ErrTooLarge", err)
	}
	if err := s.Put(0, 0, make([]byte, DefaultMaxPayload)); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStore(t *testing.T) {
	s, err := Open(t.TempDir(), 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(0, 1, payloadFor(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(0, 2, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: err = %v, want ErrClosed", err)
	}
	if err := s.Compact(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentPutGetCompact(t *testing.T) {
	s, err := Open(t.TempDir(), 2, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const (
		writers = 4
		perW    = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				b := int64(w*perW + i)
				if err := s.Put(w%2, b, payloadFor(b, 64+i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, err := s.Get(w%2, b, nil); err != nil || !bytes.Equal(got, payloadFor(b, 64+i)) {
					t.Errorf("get-after-put block %d: %v", b, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if err := s.Compact(i % 2); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	total := len(s.Blocks(0, nil)) + len(s.Blocks(1, nil))
	if total != writers*perW {
		t.Fatalf("blocks = %d, want %d", total, writers*perW)
	}
}

// garbageStore opens a single-device store and layers overwrites so the
// live set is much smaller than the file — compaction is guaranteed to
// shrink it, which the watermark/generation races below depend on.
func garbageStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for round := 0; round < 3; round++ {
		for b := int64(0); b < 8; b++ {
			if err := s.Put(0, b, payloadFor(b, 128)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestWaitSyncedReleasedByCompaction pins the append/compaction race: a
// compaction completing between append returning and the Put parking on
// the watermark must release the waiter via the generation captured
// inside append's critical section. The end offset describes the
// discarded pre-compaction file and can exceed the rewritten one, so on
// an otherwise idle volume no fsync would ever cover it — a waiter keyed
// on the post-compaction generation would park forever.
func TestWaitSyncedReleasedByCompaction(t *testing.T) {
	s := garbageStore(t, Options{NoSync: true})
	v := s.vols[0]
	end, gen, err := v.append(99, payloadFor(99, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(0); err != nil {
		t.Fatal(err)
	}
	if sz := s.Stats(0).Bytes; sz >= end {
		t.Fatalf("compaction did not shrink below the captured end (%d >= %d)", sz, end)
	}
	done := make(chan error, 1)
	go func() { done <- v.waitSynced(end, gen) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waitSynced parked forever on a pre-compaction offset")
	}
}

// TestMarkSyncedIgnoresStaleGeneration pins the fsync/compaction race: a
// sync pass captures (end, generation) under the read lock, fsyncs,
// releases the lock, and only then reports. If a compaction commits in
// that window, the completion is stale — end exceeds the rewritten file —
// and advancing the watermark with it would ack later appends below it
// without any fsync covering them.
func TestMarkSyncedIgnoresStaleGeneration(t *testing.T) {
	s := garbageStore(t, Options{NoSync: true})
	v := s.vols[0]
	// What a sync pass would capture just before the fsync.
	v.mu.RLock()
	end, gen := v.size, v.generation()
	v.mu.RUnlock()
	if err := s.Compact(0); err != nil {
		t.Fatal(err)
	}
	// The stale completion arrives after the swap.
	v.markSynced(end, gen, nil)
	if got, want := v.syncedEnd(), s.Stats(0).Bytes; got != want {
		t.Fatalf("stale sync completion moved the watermark to %d, want %d (file size)", got, want)
	}
}

func TestManyDevicesNaming(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 12, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for d := 0; d < 12; d++ {
		p := filepath.Join(dir, fmt.Sprintf("vol-%04d.pack", d))
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("volume file missing: %v", err)
		}
	}
}

// TestOpenRemovesStaleCompaction plants the temp file a kill mid-Compact
// leaves behind: Open must delete it and serve every block of the volume
// it was rewriting.
func TestOpenRemovesStaleCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 16; b++ {
		if err := s.Put(0, b, payloadFor(b, 200)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	stale := filepath.Join(dir, "vol-0000.pack"+compactSuffix)
	if err := os.WriteFile(stale, AppendNeedle(nil, 3, payloadFor(99, 50))[:30], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale compaction file survived Open: %v", err)
	}
	for b := int64(0); b < 16; b++ {
		if got, err := s2.Get(0, b, nil); err != nil || !bytes.Equal(got, payloadFor(b, 200)) {
			t.Fatalf("block %d after reopen: %v", b, err)
		}
	}
}

// TestPutAllReportsPerDevice: a device PutAll cannot write fails alone;
// the others are written and durable.
func TestPutAllReportsPerDevice(t *testing.T) {
	s, err := Open(t.TempDir(), 3, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	errs := make([]error, 3)
	if wrote := s.PutAll([]int{0, 5, 2}, 7, payloadFor(7, 100), errs); wrote != 2 {
		t.Fatalf("wrote = %d, want 2 (errs %v)", wrote, errs)
	}
	if errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("errs = %v, want only the out-of-range device to fail", errs)
	}
	for _, d := range []int{0, 2} {
		if got, err := s.Get(d, 7, nil); err != nil || !bytes.Equal(got, payloadFor(7, 100)) {
			t.Fatalf("device %d: %v", d, err)
		}
	}
	if wrote := s.PutAll([]int{0, 1}, 8, make([]byte, DefaultMaxPayload+1), errs); wrote != 0 ||
		!errors.Is(errs[0], ErrTooLarge) || !errors.Is(errs[1], ErrTooLarge) {
		t.Fatalf("oversized PutAll: wrote %d, errs %v", wrote, errs[:2])
	}
}

// TestAppendThenWait splits PutAll at its seam: the appends are readable
// at once, WaitAll parks until a sync pass covers them, and a Pending is
// reused across a fan-out wider than its inline marks, with a failing
// device past them.
func TestAppendThenWait(t *testing.T) {
	s, err := Open(t.TempDir(), 6, Options{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var p Pending
	for round, devs := range [][]int{{0, 1, 2, 3, 4, 9}, {5, 1}} {
		block := int64(round)
		errs := make([]error, len(devs))
		s.AppendAll(&p, devs, block, payloadFor(block, 100), errs)
		for i, d := range devs {
			if d >= s.Devices() {
				if errs[i] == nil {
					t.Fatalf("round %d: append to device %d succeeded", round, d)
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("round %d: append to device %d: %v", round, d, errs[i])
			}
			if got, err := s.Get(d, block, nil); err != nil || !bytes.Equal(got, payloadFor(block, 100)) {
				t.Fatalf("round %d: appended block unreadable on device %d: %v", round, d, err)
			}
		}
		done := make(chan int, 1)
		go func() { done <- s.WaitAll(&p, errs) }()
		select {
		case <-done:
			t.Fatalf("round %d: WaitAll returned before any sync pass", round)
		case <-time.After(20 * time.Millisecond):
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		want := len(devs)
		if round == 0 {
			want--
		}
		if wrote := <-done; wrote != want {
			t.Fatalf("round %d: wrote %d, want %d (errs %v)", round, wrote, want, errs)
		}
	}
}

// TestSyncSkipsCompactingVolume: compaction holds its volume's lock for
// the whole rewrite. Neither the sync loop nor a forced Sync may queue an
// fsync behind it — the swap marks the volume durable itself — so Puts on
// the other volumes keep committing and Sync returns.
func TestSyncSkipsCompactingVolume(t *testing.T) {
	s, err := Open(t.TempDir(), 2, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := s.vols[0]
	if _, _, err := v.append(1, payloadFor(1, 64)); err != nil {
		t.Fatal(err)
	}
	v.compacting.Add(1)
	v.mu.Lock()
	defer func() {
		v.mu.Unlock()
		v.compacting.Add(-1)
	}()
	done := make(chan error, 1)
	go func() {
		for b := int64(0); b < 5; b++ {
			if err := s.Put(1, b, payloadFor(b, 64)); err != nil {
				done <- err
				return
			}
		}
		done <- s.Sync()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Puts on device 1 or Sync stalled behind device 0's compaction")
	}
}

// TestBackgroundCompaction runs sustained overwrites of a small working set
// on a synced store: the compactor must keep every volume's garbage near
// its trigger, and every block must read back its last acked payload —
// before and after a reopen.
func TestBackgroundCompaction(t *testing.T) {
	const (
		devices = 3
		writers = 4
		blocks  = 64 // live ≈ 256 KiB per volume, so the 1 MiB floor triggers
		puts    = 400
		size    = 4 << 10
	)
	dir := t.TempDir()
	s, err := Open(dir, devices, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(b int64, ver int) []byte { return payloadFor(b*1000+int64(ver), size) }
	devs := []int{0, 1, 2}
	var last [blocks]int
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs := make([]error, devices)
			for i := 0; i < puts; i++ {
				b := int64(w + writers*(i%(blocks/writers)))
				if wrote := s.PutAll(devs, b, payload(b, i), errs); wrote != devices {
					t.Errorf("PutAll block %d: %v", b, errs)
					return
				}
				last[b] = i
			}
		}(w)
	}
	stop := make(chan struct{})
	var peak int64
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			for d := 0; d < devices; d++ {
				peak = max(peak, s.Stats(d).Garbage)
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-sampled
	written := int64(writers*puts) * (needleHeaderSize + size)
	// Past the trigger, a volume gains at most what lands while one
	// compaction is offered and runs; with a 256 KiB live set that is far
	// below another MiB.
	if bound := int64(2 * compactMinGarbage); peak > bound || written < 3*bound {
		t.Fatalf("peak garbage %d, want <= %d (%d bytes overwritten per volume)", peak, bound, written)
	}
	check := func(s *Store) {
		for b := int64(0); b < blocks; b++ {
			for _, d := range devs {
				if got, err := s.Get(d, b, nil); err != nil || !bytes.Equal(got, payload(b, last[b])) {
					t.Fatalf("device %d block %d: %v, want version %d", d, b, err, last[b])
				}
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, devices, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2)
}

// liveGoroutines returns the number of goroutines in a full stack dump that
// are still inside a function body, and the dump. Unlike
// runtime.NumGoroutine it does not count a goroutine that has returned: one
// whose slot the runtime has not reclaimed yet, or one still unwinding in
// runtime.goexit1, which a goroutine that signalled a WaitGroup on its way
// out can briefly be.
func liveGoroutines() (int, []byte) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		frames := bytes.SplitN(g, []byte("\n"), 3)
		if len(frames) > 1 && !bytes.HasPrefix(frames[1], []byte("runtime.goexit1(")) {
			n++
		}
	}
	return n, buf
}

// TestCloseDuringCompaction hands the background compactor a volume big
// enough that Close lands mid-rewrite: Close must return with no
// goroutine of the store left running and no temp file left behind, and
// the volume must reopen whole.
func TestCloseDuringCompaction(t *testing.T) {
	const blocks = 20000
	dir := t.TempDir()
	before, _ := liveGoroutines()
	s, err := Open(dir, 1, Options{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	v := s.vols[0]
	for round := 0; round < 2; round++ {
		for b := int64(0); b < blocks; b++ {
			if _, _, err := v.append(b, payloadFor(b+int64(round), 32)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.compactq <- v // the compactor has taken it once this send returns
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, stacks := liveGoroutines(); n > before {
		t.Fatalf("%d goroutines after Close, %d before:\n%s", n, before, stacks)
	}
	if _, err := os.Stat(filepath.Join(dir, "vol-0000.pack"+compactSuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction temp file after Close: %v", err)
	}
	s2, err := Open(dir, 1, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for b := int64(0); b < blocks; b++ {
		if got, err := s2.Get(0, b, nil); err != nil || !bytes.Equal(got, payloadFor(b+1, 32)) {
			t.Fatalf("block %d after reopen: %v", b, err)
		}
	}
}
