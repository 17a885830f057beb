package qosnet

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/health"
	"flashqos/internal/pack"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

// startPutServer serves a one-shard Paper931 array with health monitors
// over a pack store committing every interval, behind fs when fs is
// non-nil (fs.BlockStore is set to the store).
func startPutServer(t testing.TB, interval time.Duration, fs *faultStore) (*shard.Array, *pack.Store, string) {
	t.Helper()
	arr, err := shard.New(1, core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	store, err := pack.Open(t.TempDir(), arr.Devices(), pack.Options{SyncInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := arr.NewHealthMonitors(0, health.Config{SuspectAfter: 1, FailAfter: 100}); err != nil {
		t.Fatal(err)
	}
	var bs BlockStore = store
	if fs != nil {
		fs.BlockStore = store
		bs = fs
	}
	srv := NewServerSharded(arr, Options{Store: bs})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return arr, store, addr.String()
}

// liveGoroutines returns the number of goroutines in a full stack dump that
// are still inside a function body, and the dump. Unlike
// runtime.NumGoroutine it does not count a goroutine that has returned and
// is still unwinding in runtime.goexit1.
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

// waitGoroutines polls until ok accepts the live goroutine count, failing
// with the stack dump after 5 s.
func waitGoroutines(t *testing.T, what string, ok func(n int) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, stacks := liveGoroutines()
		if ok(n) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines:\n%s", what, n, stacks)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// settledGoroutines returns the live goroutine count once it holds still
// for 20 ms, so the store's short-lived per-pass fsync goroutines are not
// in it.
func settledGoroutines() int {
	n, _ := liveGoroutines()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m, _ := liveGoroutines()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestPipelinedPutsShareCommit: sixteen 3-replica PUTs pipelined on one
// connection share group commits instead of paying one each. With a
// 50 ms commit interval, a read loop that waits out each PUT's commit
// before reading the next needs about sixteen intervals; all sixteen
// must be acked within three.
func TestPipelinedPutsShareCommit(t *testing.T) {
	const interval = 50 * time.Millisecond
	_, store, addr := startPutServer(t, interval, nil)
	c := dialBinT(t, addr)

	start := time.Now()
	chs := make([]<-chan SubmitResult, 16)
	for i := range chs {
		chs[i] = c.PutAsync(int64(i), blockPayload(int64(i), 8192))
	}
	for i, ch := range chs {
		if r := <-ch; r.Err != nil || r.Rejected {
			t.Fatalf("put %d: %v (rejected %v)", i, r.Err, r.Rejected)
		}
	}
	if took, limit := time.Since(start), 3*interval; took > limit {
		t.Fatalf("16 pipelined PUTs took %v, want <= %v (shared %v commits)", took, limit, interval)
	}
	for i := range chs {
		_, devs, err := c.Map(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range devs {
			if got, err := store.Get(d, int64(i), nil); err != nil || !bytes.Equal(got, blockPayload(int64(i), 8192)) {
				t.Fatalf("block %d on replica %d: %v", i, d, err)
			}
		}
	}
}

// TestPutThenGetPipelined: a GET pipelined behind a PUT of the same block
// returns the new bytes, and its reply reaches the client after the PUT's
// ack — a connection never reads its own un-acked write.
func TestPutThenGetPipelined(t *testing.T) {
	_, _, addr := startPutServer(t, 20*time.Millisecond, nil)
	c := dialBinT(t, addr)
	const block = 7
	v1, v2 := blockPayload(block, 4096), blockPayload(block+1, 4096)
	if _, err := c.Put(block, v1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		var (
			mu    sync.Mutex
			order []uint8
			got   []byte
			errs  []error
		)
		var wg sync.WaitGroup
		wg.Add(2)
		record := func(h wire.Header, p []byte, err error) {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			if err == nil && h.Flags&wire.FlagError != 0 {
				err = errorFrame(p)
			}
			if err != nil {
				errs = append(errs, err)
				return
			}
			order = append(order, h.Opcode)
			if h.Opcode == wire.OpGet {
				_, data, perr := wire.ParseGetResp(p)
				got, errs = append([]byte(nil), data...), append(errs, perr)
			}
		}
		want := v2
		if round%2 == 1 {
			want = v1
		}
		c.CallFlags(wire.OpPut, 0, wire.AppendPutReq(nil, block, want), record)
		c.CallFlags(wire.OpGet, 0, wire.AppendBlock(nil, block), record)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if len(order) != 2 || order[0] != wire.OpPut || order[1] != wire.OpGet {
			t.Fatalf("round %d: replies arrived as opcodes %v, want PUT then GET", round, order)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: GET behind the PUT read stale bytes", round)
		}
	}
}

// TestPendingPutFaults: faults on the commit half reach health the way
// append faults do. A PUT one of whose replicas fails its commit is still
// acked off the others and the faulted device turns Suspect; a PUT every
// replica of which fails its commit gets an error frame, not an ack.
func TestPendingPutFaults(t *testing.T) {
	fs := &faultStore{}
	arr, store, addr := startPutServer(t, time.Millisecond, fs)
	c := dialBinT(t, addr)
	mon := arr.Monitor(0)

	const block = 11
	_, devs, err := c.Map(block)
	if err != nil {
		t.Fatal(err)
	}
	bad := devs[2]
	fs.setBadCommit(bad, true)
	chs := make([]<-chan SubmitResult, 4)
	for i := range chs {
		chs[i] = c.PutAsync(block, blockPayload(block+int64(i), 64))
	}
	for i, ch := range chs {
		if r := <-ch; r.Err != nil || r.Rejected {
			t.Fatalf("put %d with one replica's commit failing: %v (rejected %v)", i, r.Err, r.Rejected)
		}
	}
	for _, d := range devs {
		want := health.Healthy
		if d == bad {
			want = health.Suspect
		}
		if st := mon.State(d); st != want {
			t.Fatalf("device %d state %v, want %v", d, st, want)
		}
		if !store.Has(d, block) {
			t.Fatalf("device %d lacks the block its append wrote", d)
		}
	}

	// Every replica of block now fails its commit. A PUT of a block on
	// other devices, pipelined ahead of it, is still acked.
	other := int64(block + 1)
	for ; ; other++ {
		_, odevs, err := c.Map(other)
		if err != nil {
			t.Fatal(err)
		}
		if !overlaps(odevs, devs) {
			break
		}
	}
	for _, d := range devs {
		fs.setBadCommit(d, true)
	}
	okCh := c.PutAsync(other, blockPayload(other, 64))
	failCh := c.PutAsync(block, blockPayload(block, 64))
	if r := <-okCh; r.Err != nil || r.Rejected {
		t.Fatalf("put to healthy replicas: %v (rejected %v)", r.Err, r.Rejected)
	}
	if r := <-failCh; r.Err == nil {
		t.Fatal("put whose every replica failed its commit was acked")
	}
}

func overlaps(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// TestTimingConnStartsNoAcker: the PUT acker is started by a connection's
// first PUT, so a connection that sends only timing verbs and GETs runs
// no goroutine beyond its read loop, while one PUT adds exactly one.
func TestTimingConnStartsNoAcker(t *testing.T) {
	_, _, addr := startPutServer(t, time.Millisecond, nil)
	if _, err := dialBinT(t, addr).Put(3, blockPayload(3, 64)); err != nil {
		t.Fatal(err)
	}
	c := dialBinT(t, addr)
	if _, err := c.Read(1); err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()
	for b := int64(0); b < 50; b++ {
		chs := []<-chan SubmitResult{c.SubmitAsync(b), c.submitBlock(wire.OpWrite, b, 0)}
		if _, _, err := c.Get(3); err != nil {
			t.Fatal(err)
		}
		for _, ch := range chs {
			if r := <-ch; r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	if n, stacks := liveGoroutines(); n > before {
		t.Fatalf("timing and GET traffic started goroutines: %d, was %d:\n%s", n, before, stacks)
	}
	if _, err := c.Put(4, blockPayload(4, 64)); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "after the connection's first PUT", func(n int) bool { return n == before+1 })
}

// TestCloseWithPendingPuts: a client that goes away — after a quit frame
// or by just closing — with PUTs in flight leaves no goroutine behind,
// and every PUT it saw acked reads back.
func TestCloseWithPendingPuts(t *testing.T) {
	_, _, addr := startPutServer(t, 20*time.Millisecond, nil)
	check := dialBinT(t, addr)
	if _, err := check.Read(0); err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()
	for _, quit := range []bool{true, false} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(conn)
		id := uint64(0)
		send := func(n int) {
			for i := 0; i < n; i++ {
				id++
				block := int64(id % 5)
				w.Write(wire.AppendFrame(nil, wire.Header{Opcode: wire.OpPut, ID: id}, wire.AppendPutReq(nil, block, blockPayload(int64(id), 2048))))
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		send(16)
		// Read acks until one lands, then put 16 more in flight and go.
		rd := wire.NewReader(bufio.NewReader(conn), 0)
		acked := map[int64]uint64{} // block → the newest acked writer ID
		for len(acked) == 0 {
			h, p, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if o, _, err := wire.ParseOutcome(p); h.Flags&wire.FlagError == 0 && err == nil && !o.Rejected() {
				acked[int64(h.ID%5)] = h.ID
			}
		}
		send(16)
		if quit {
			w.Write(wire.AppendFrame(nil, wire.Header{Opcode: wire.OpQuit, ID: id + 1}, nil))
			w.Flush()
		}
		conn.Close()
		waitGoroutines(t, "after the client left", func(n int) bool { return n <= before })
		// An acked PUT is durable: its block reads back as its bytes or
		// those of a later PUT of the same block.
		for b, ackedID := range acked {
			_, data, err := check.Get(b)
			if err != nil {
				t.Fatalf("acked block %d: %v", b, err)
			}
			found := false
			for w := ackedID; w <= id && !found; w += 5 {
				found = bytes.Equal(data, blockPayload(int64(w), 2048))
			}
			if !found {
				t.Fatalf("block %d reads as none of its PUTs from the acked one (ID %d) on", b, ackedID)
			}
		}
	}
}

// BenchmarkPipelinedPut drives one connection with 16 8 KiB PUTs in
// flight against a synced store (default commit interval) and reports
// PUTs per second. It is fsync-bound, so it measures commit sharing, not
// CPU; allocs/op covers the server's PUT path and the raw-frame client.
func BenchmarkPipelinedPut(b *testing.B) {
	const window = 16
	_, _, addr := startPutServer(b, pack.DefaultSyncInterval, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := blockPayload(1, 8192)
	frame := make([]byte, 0, wire.HeaderSize+8+len(payload))
	tokens := make(chan struct{}, window)
	for range window {
		tokens <- struct{}{}
	}
	done := make(chan error, 1)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		rd := wire.NewReader(bufio.NewReaderSize(conn, connReadBuf), 0)
		for i := 0; i < b.N; i++ {
			h, p, err := rd.Next()
			if err == nil && h.Flags&wire.FlagError != 0 {
				err = errorFrame(p)
			}
			if err != nil {
				done <- err
				return
			}
			tokens <- struct{}{}
		}
		done <- nil
	}()
	w := bufio.NewWriterSize(conn, connReadBuf)
	for i := 0; i < b.N; i++ {
		select {
		case <-tokens:
		default:
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			<-tokens
		}
		p := wire.AppendPutReq(frame[wire.HeaderSize:wire.HeaderSize], int64(i%1024), payload)
		wire.PutHeader(frame[:wire.HeaderSize], wire.Header{Opcode: wire.OpPut, ID: uint64(i), Len: uint32(len(p))})
		if _, err := w.Write(frame[:wire.HeaderSize+len(p)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "puts/s")
}
