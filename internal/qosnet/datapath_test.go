package qosnet

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/health"
	"flashqos/internal/pack"
	"flashqos/internal/shard"
)

// startDataServer runs a sharded server with a pack store attached (and,
// when monitors is true, per-shard health monitors whose rebuild pass
// copies real payloads through the store).
func startDataServer(t *testing.T, shards int, monitors bool) (*Server, *pack.Store, string) {
	t.Helper()
	arr, err := shard.New(shards, core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	store, err := pack.Open(t.TempDir(), arr.Devices(), pack.Options{SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if monitors {
		cfg := health.Config{SuspectAfter: 1, FailAfter: 2}
		if err := arr.NewHealthMonitorsWithCopy(10_000, cfg, RebuildCopy(arr, store)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServerSharded(arr, Options{Store: store})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, store, addr.String()
}

func blockPayload(block int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int64(i)*11 + block*29 + 3)
	}
	return b
}

// TestDataPathRoundTrip is the core acceptance path in-process: PUT then
// GET of real bytes over the binary protocol with QoS admission in front,
// across a 2-shard array so global↔local device translation is exercised.
func TestDataPathRoundTrip(t *testing.T) {
	_, store, addr := startDataServer(t, 2, false)
	c := dialBinT(t, addr)

	const n = 64
	for b := int64(0); b < n; b++ {
		r, err := c.Put(b*7, blockPayload(b, 100+int(b)))
		if err != nil {
			t.Fatalf("put %d: %v", b, err)
		}
		if r.Rejected {
			t.Fatalf("put %d rejected under light load", b)
		}
	}
	for b := int64(0); b < n; b++ {
		r, data, err := c.Get(b * 7)
		if err != nil {
			t.Fatalf("get %d: %v", b, err)
		}
		if r.Rejected {
			t.Fatalf("get %d rejected under light load", b)
		}
		if !bytes.Equal(data, blockPayload(b, 100+int(b))) {
			t.Fatalf("block %d: payload mismatch (%d bytes)", b, len(data))
		}
		if r.RespMS <= 0 {
			t.Fatalf("get %d: outcome carries no response time", b)
		}
	}
	// Every replica of a written block must hold the bytes (full-stripe
	// write), checked through the MAP verb's device list.
	_, devs, err := c.Map(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range devs {
		if !store.Has(g, 0) {
			t.Fatalf("replica device %d missing block 0 after PUT", g)
		}
	}
	// A block never written is an error, not garbage bytes.
	if _, _, err := c.Get(999_999); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing block: err = %v, want not-found", err)
	}
	// Overwrite supersedes.
	if _, err := c.Put(0, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, data, err := c.Get(0); err != nil || string(data) != "v2" {
		t.Fatalf("overwrite: %q, %v", data, err)
	}
}

// TestDataPathWithoutStore pins the compatibility contract: a server with
// no store answers the data verbs with an error frame and everything else
// is untouched.
func TestDataPathWithoutStore(t *testing.T) {
	arr, err := shard.New(1, core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerSharded(arr, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	c := dialBinT(t, addr.String())
	if _, err := c.Put(1, []byte("x")); err == nil || !strings.Contains(err.Error(), "no data store") {
		t.Fatalf("put without store: err = %v", err)
	}
	if _, _, err := c.Get(1); err == nil || !strings.Contains(err.Error(), "no data store") {
		t.Fatalf("get without store: err = %v", err)
	}
	// Timing-only verbs still work on the same connection.
	if _, err := c.Read(1); err != nil {
		t.Fatalf("read after data-verb errors: %v", err)
	}
}

// faultStore wraps a BlockStore and fails reads, appends or commits on
// selected global devices with a media error.
type faultStore struct {
	BlockStore
	mu        sync.Mutex
	badRead   map[int]bool
	badWrite  map[int]bool // AppendAll fails the device
	badCommit map[int]bool // WaitAll fails the device
	pending   map[*pack.Pending]faultPut
}

// faultPut is one AppendAll between its halves: its devices, and the
// indexes of those the wrapped store appended to.
type faultPut struct {
	devs []int
	at   []int
}

func (f *faultStore) set(m *map[int]bool, dev int, bad bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if *m == nil {
		*m = make(map[int]bool)
	}
	(*m)[dev] = bad
}

func (f *faultStore) setBadRead(dev int, bad bool)   { f.set(&f.badRead, dev, bad) }
func (f *faultStore) setBadWrite(dev int, bad bool)  { f.set(&f.badWrite, dev, bad) }
func (f *faultStore) setBadCommit(dev int, bad bool) { f.set(&f.badCommit, dev, bad) }

// AppendAll fails the bad-write devices and hands the rest to the wrapped
// store in one call, so their commit stays shared.
func (f *faultStore) AppendAll(p *pack.Pending, devs []int, block int64, payload []byte, errs []error) {
	fp := faultPut{devs: append([]int(nil), devs...)}
	var good []int
	f.mu.Lock()
	for i, d := range devs {
		if f.badWrite[d] {
			errs[i] = fmt.Errorf("injected write fault on device %d", d)
		} else {
			good, fp.at = append(good, d), append(fp.at, i)
		}
	}
	if f.pending == nil {
		f.pending = make(map[*pack.Pending]faultPut)
	}
	f.pending[p] = fp
	f.mu.Unlock()
	goodErrs := make([]error, len(good))
	f.BlockStore.AppendAll(p, good, block, payload, goodErrs)
	for j, i := range fp.at {
		errs[i] = goodErrs[j]
	}
}

// WaitAll waits on the wrapped store, then fails the bad-commit devices
// that were appended to.
func (f *faultStore) WaitAll(p *pack.Pending, errs []error) int {
	f.mu.Lock()
	fp := f.pending[p]
	delete(f.pending, p)
	f.mu.Unlock()
	goodErrs := make([]error, len(fp.at))
	for j, i := range fp.at {
		goodErrs[j] = errs[i]
	}
	f.BlockStore.WaitAll(p, goodErrs)
	f.mu.Lock()
	defer f.mu.Unlock()
	wrote := 0
	for j, i := range fp.at {
		if errs[i] = goodErrs[j]; errs[i] == nil && f.badCommit[fp.devs[i]] {
			errs[i] = fmt.Errorf("injected fsync fault on device %d", fp.devs[i])
		}
		if errs[i] == nil {
			wrote++
		}
	}
	return wrote
}

func (f *faultStore) Get(dev int, block int64, dst []byte) ([]byte, error) {
	f.mu.Lock()
	bad := f.badRead[dev]
	f.mu.Unlock()
	if bad {
		return dst, fmt.Errorf("injected media fault on device %d", dev)
	}
	return f.BlockStore.Get(dev, block, dst)
}

// TestMediaFaultsDriveHealth is the tentpole's health integration: real
// read errors from the store — not synthetic admin commands — must walk a
// device through Suspect into Failed, while GETs keep succeeding off the
// block's other replicas.
func TestMediaFaultsDriveHealth(t *testing.T) {
	arr, err := shard.New(1, core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	store, err := pack.Open(t.TempDir(), arr.Devices(), pack.Options{SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	fs := &faultStore{BlockStore: store}
	if err := arr.NewHealthMonitors(0, health.Config{SuspectAfter: 1, FailAfter: 2}); err != nil {
		t.Fatal(err)
	}
	srv := NewServerSharded(arr, Options{Store: fs})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	c := dialBinT(t, addr.String())

	const block = 5
	if _, err := c.Put(block, blockPayload(block, 64)); err != nil {
		t.Fatal(err)
	}
	_, devs, err := c.Map(block)
	if err != nil {
		t.Fatal(err)
	}
	target := devs[0]
	fs.setBadRead(target, true)

	mon := arr.Monitor(0)
	deadline := time.Now().Add(5 * time.Second)
	for mon.State(target) != health.Failed {
		if time.Now().After(deadline) {
			t.Fatalf("device %d state %v after sustained media faults, want Failed", target, mon.State(target))
		}
		// Reads keep being admitted; whenever admission picks the faulted
		// device, the data path reports the error and serves the fallback.
		r, data, err := c.Get(block)
		if err != nil {
			t.Fatalf("get during faults: %v", err)
		}
		if !r.Rejected && !bytes.Equal(data, blockPayload(block, 64)) {
			t.Fatal("fallback read returned wrong bytes")
		}
	}
	// Once failed, the device leaves the mask: GETs still succeed.
	if _, data, err := c.Get(block); err != nil || !bytes.Equal(data, blockPayload(block, 64)) {
		t.Fatalf("get after device failed: %v", err)
	}
}

// TestRebuildMovesPayloads drives the full repair cycle with real bytes:
// fail a device (its replicas reprotect onto survivors), write new blocks
// degraded (the dead device misses them), recover it (resilver copies the
// diff back), and assert the recovered device holds every block it owns a
// replica of.
func TestRebuildMovesPayloads(t *testing.T) {
	_, store, addr := startDataServer(t, 1, true)
	c := dialBinT(t, addr)

	blocks := make([]int64, 40)
	for i := range blocks {
		blocks[i] = int64(i)
		if _, err := c.Put(int64(i), blockPayload(int64(i), 128)); err != nil {
			t.Fatal(err)
		}
	}
	// Pick the device with the most replicas to make the diff meaningful.
	target := 0
	if _, _, err := c.Fail(target); err != nil {
		t.Fatal(err)
	}
	// Degraded writes: the failed device is skipped.
	for i := 40; i < 60; i++ {
		blocks = append(blocks, int64(i))
		if _, err := c.Put(int64(i), blockPayload(int64(i), 128)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Recover(target); err != nil {
		t.Fatal(err)
	}
	// The serve loop pumps Monitor.Step; the resilver must repopulate the
	// device with every block it is a replica holder of — byte-for-byte.
	deadline := time.Now().Add(5 * time.Second)
	for {
		missing := 0
		for _, b := range blocks {
			if holdsReplica(c, t, b, target) && !store.Has(target, b) {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d blocks still missing on recovered device %d", missing, target)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var buf []byte
	for _, b := range blocks {
		if !holdsReplica(c, t, b, target) {
			continue
		}
		got, err := store.Get(target, b, buf[:0])
		buf = got
		if err != nil || !bytes.Equal(got, blockPayload(b, 128)) {
			t.Fatalf("resilvered block %d wrong on device %d: %v", b, target, err)
		}
	}
}

func holdsReplica(c *BinaryClient, t *testing.T, block int64, dev int) bool {
	t.Helper()
	_, devs, err := c.Map(block)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if d == dev {
			return true
		}
	}
	return false
}

// TestDataPutOneCommit pins the fan-out commit: a 3-replica PUT appends
// every replica before it waits, so it waits out one group commit, not
// one per replica. With a 50 ms commit interval a serial PUT needs at
// least two full intervals; the best of three PUTs here must finish
// within one interval plus slack.
func TestDataPutOneCommit(t *testing.T) {
	const interval = 50 * time.Millisecond
	arr, err := shard.New(1, core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	store, err := pack.Open(t.TempDir(), arr.Devices(), pack.Options{SyncInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := NewServerSharded(arr, Options{Store: store})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	c := dialBinT(t, addr.String())

	best := time.Hour
	for b := int64(0); b < 3; b++ {
		start := time.Now()
		r, err := c.Put(b, blockPayload(b, 8192))
		if err != nil || r.Rejected {
			t.Fatalf("put %d: %v (rejected %v)", b, err, r.Rejected)
		}
		best = min(best, time.Since(start))
		_, devs, err := c.Map(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range devs {
			if !store.Has(d, b) {
				t.Fatalf("block %d missing on replica %d", b, d)
			}
		}
	}
	if limit := interval * 8 / 5; best > limit {
		t.Fatalf("fastest 3-replica PUT took %v, want <= %v (one %v commit plus slack)", best, limit, interval)
	}
}

// TestDataPutReplicaFaults: a PUT whose replica faults is acked off the
// others and reports the fault to health; a PUT every replica of which
// faults fails.
func TestDataPutReplicaFaults(t *testing.T) {
	arr, err := shard.New(1, core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	store, err := pack.Open(t.TempDir(), arr.Devices(), pack.Options{SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	fs := &faultStore{BlockStore: store}
	if err := arr.NewHealthMonitors(0, health.Config{SuspectAfter: 1, FailAfter: 100}); err != nil {
		t.Fatal(err)
	}
	srv := NewServerSharded(arr, Options{Store: fs})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	c := dialBinT(t, addr.String())
	mon := arr.Monitor(0)

	const block = 9
	_, devs, err := c.Map(block)
	if err != nil {
		t.Fatal(err)
	}
	bad := devs[1]
	fs.setBadWrite(bad, true)
	if r, err := c.Put(block, blockPayload(block, 64)); err != nil || r.Rejected {
		t.Fatalf("put with one faulting replica: %v (rejected %v)", err, r.Rejected)
	}
	for _, d := range devs {
		if got := store.Has(d, block); got == (d == bad) {
			t.Fatalf("device %d holds the block: %v, want %v", d, got, d != bad)
		}
		want := health.Healthy
		if d == bad {
			want = health.Suspect
		}
		if st := mon.State(d); st != want {
			t.Fatalf("device %d state %v, want %v", d, st, want)
		}
	}

	for _, d := range devs {
		fs.setBadWrite(d, true)
	}
	if _, err := c.Put(block, blockPayload(block+1, 64)); err == nil {
		t.Fatal("put with every replica faulting was acked")
	}
}

// copyCounter records every Copy the rebuild pass makes.
type copyCounter struct {
	BlockStore
	mu    sync.Mutex
	calls map[int64][][]int // block → the target lists it was copied to
}

func (c *copyCounter) Copy(from int, to []int, block int64) error {
	c.mu.Lock()
	c.calls[block] = append(c.calls[block], append([]int(nil), to...))
	c.mu.Unlock()
	return c.BlockStore.Copy(from, to, block)
}

// TestReprotectCopiesOncePerBlock: with c = 4 a reprotect has three
// targets. A block only one of them holds must reach the other two in one
// Copy — one read and one commit — not one per target.
func TestReprotectCopiesOncePerBlock(t *testing.T) {
	d, err := design.ForParams(13, 4) // PG(2,3)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := shard.New(1, core.Config{Design: d})
	if err != nil {
		t.Fatal(err)
	}
	store, err := pack.Open(t.TempDir(), arr.Devices(), pack.Options{SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	sys := arr.System(0)
	bucket := sys.Mapper().DesignBlock(0)
	reps := sys.Allocator().Replicas(bucket)
	failed, src := reps[0], reps[1]
	var blocks []int64
	for b := int64(0); len(blocks) < 5; b++ {
		if sys.Mapper().DesignBlock(b) == bucket {
			blocks = append(blocks, b)
			if err := store.Put(src, b, blockPayload(b, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cc := &copyCounter{BlockStore: store, calls: make(map[int64][][]int)}
	RebuildCopy(arr, cc)(0, failed, bucket, health.Reprotect)
	for _, b := range blocks {
		if calls := cc.calls[b]; len(calls) != 1 || len(calls[0]) != 2 {
			t.Fatalf("block %d copied as %v, want one Copy to 2 targets", b, calls)
		}
		for _, d := range reps[2:] {
			if got, err := store.Get(d, b, nil); err != nil || !bytes.Equal(got, blockPayload(b, 100)) {
				t.Fatalf("block %d on target %d: %v", b, d, err)
			}
		}
	}
}
