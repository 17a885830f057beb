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

// faultStore wraps a BlockStore and fails reads/writes on selected global
// devices with a media error.
type faultStore struct {
	BlockStore
	mu      sync.Mutex
	badRead map[int]bool
}

func (f *faultStore) setBadRead(dev int, bad bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.badRead == nil {
		f.badRead = make(map[int]bool)
	}
	f.badRead[dev] = bad
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
