package qosnet

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flashqos/internal/admission"
	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/health"
	"flashqos/internal/wire"
)

func dialBinT(t *testing.T, addr string) *BinaryClient {
	t.Helper()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBinaryReadWriteRoundTrip checks the framed READ/WRITE path delivers
// the same admission semantics the text protocol documents: in-range
// device, the paper's response-time guarantee, nothing rejected under the
// Delay policy.
func TestBinaryReadWriteRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dialBinT(t, addr)

	res, err := c.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected {
		t.Fatal("first read rejected")
	}
	if res.Device < 0 || res.Device > 8 {
		t.Errorf("device %d out of range", res.Device)
	}
	if res.RespMS < 0.132 || res.RespMS > 0.134 {
		t.Errorf("response %.6f, want ≈ 0.1325 (the guarantee)", res.RespMS)
	}
	wres, err := c.Write(43)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Rejected || wres.Device < 0 {
		t.Errorf("write outcome %+v", wres)
	}
}

// TestBinaryMatchesText runs the same verbs over a text and a binary
// connection to one sharded server and demands identical answers: MAP
// placement, STATS totals, and a byte-identical METRICS page.
func TestBinaryMatchesText(t *testing.T) {
	_, addr := startShardedServer(t, 4)
	tc := dialText(t, addr)
	bc := dialBinT(t, addr)

	for block := int64(-3); block < 40; block += 7 {
		db, devs, err := bc.Map(block)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint("MAP ", db)
		for _, d := range devs {
			want += fmt.Sprint(" ", d)
		}
		if got := tc.do(fmt.Sprint("MAP ", block)); got != want {
			t.Errorf("MAP %d: text %q, binary %q", block, got, want)
		}
	}

	if _, err := bc.Read(7); err != nil {
		t.Fatal(err)
	}
	if got := tc.do("READ 8"); !strings.HasPrefix(got, "OK ") {
		t.Fatalf("READ 8 answered %q", got)
	}
	req, del, rej, avg, err := bc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tc.do("STATS"), fmt.Sprintf("STATS %d %d %d %.6f", req, del, rej, avg); got != want {
		t.Errorf("STATS text %q != binary %q", got, want)
	}

	tpage := tc.send("METRICS\n")
	bpage, err := bc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if tpage != bpage+"\n" {
		t.Errorf("METRICS pages differ:\ntext:\n%s\nbinary:\n%s", tpage, bpage)
	}

	gs, err := bc.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 4 {
		t.Fatalf("ShardStats returned %d shards, want 4", len(gs))
	}
	var total int64
	for i, g := range gs {
		if g.S != 5 || g.EffectiveS != 5 || g.Alive != 9 {
			t.Errorf("shard %d gauge %+v, want S=5 S'=5 alive=9", i, g)
		}
		total += g.Requests
	}
	if total != req {
		t.Errorf("shard requests sum %d != STATS total %d", total, req)
	}
}

// TestBinaryBatch joint-admits a burst and checks outcomes arrive in input
// order with the batch contract (same arrival instant, so delays ramp).
func TestBinaryBatch(t *testing.T) {
	_, addr := startServer(t)
	c := dialBinT(t, addr)

	blocks := make([]int64, 12)
	for i := range blocks {
		blocks[i] = int64(i)
	}
	rs, err := c.Batch(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(blocks) {
		t.Fatalf("batch returned %d outcomes, want %d", len(rs), len(blocks))
	}
	delayed := 0
	for i, r := range rs {
		if r.Rejected {
			t.Errorf("batch[%d] rejected under Delay policy", i)
		}
		if r.Delayed {
			delayed++
		}
	}
	if delayed == 0 {
		t.Error("12 simultaneous reads against S=5 produced no delays")
	}
}

// TestBinaryRejectedOutcome checks the wire form of a plain rejection:
// the rejected status bit alone (neither unavailable nor over limit),
// device -1, zero timings — mirroring the text REJECTED line. A tenant
// whose window cap is zero is the one plain rejection: "full" reserves all
// of S, leaving "starved" a weight but no slot in any window.
func TestBinaryRejectedOutcome(t *testing.T) {
	srv, addr := startTenantServer(t)
	for _, spec := range []admission.TenantSpec{
		{Name: "full", Reserve: srv.arr.System(0).S(), Weight: 1},
		{Name: "starved", Weight: 1},
	} {
		if _, err := srv.arr.TenantSet(spec); err != nil {
			t.Fatal(err)
		}
	}
	c := dialBinT(t, addr)
	idx, err := c.TenantHello([]string{"starved"})
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	for _, op := range []uint8{wire.OpSubmit, wire.OpWrite} {
		done := make(chan struct{})
		c.CallFlags(op, wire.FlagTenant, wire.AppendTenantBlock(payload[:0], 7, idx[0]), func(h wire.Header, p []byte, err error) {
			defer close(done)
			if err == nil && h.Flags&wire.FlagError != 0 {
				err = errorFrame(p)
			}
			if err != nil {
				t.Errorf("op %d: %v", op, err)
				return
			}
			o, _, err := wire.ParseOutcome(p)
			if err != nil {
				t.Errorf("op %d: %v", op, err)
				return
			}
			if o.Status != wire.StatusRejected || o.Device != -1 || o.DelayMS != 0 || o.RespMS != 0 {
				t.Errorf("op %d: outcome %+v, want status %#x alone, device -1 and zero timings", op, o, wire.StatusRejected)
			}
		})
		<-done
	}
}

// TestBinaryFailRecoverHealth drives the admin verbs over frames and
// cross-checks the HEALTH report against the text protocol's.
func TestBinaryFailRecoverHealth(t *testing.T) {
	_, addr := startHealthServer(t, 0)
	c := dialBinT(t, addr)

	state, effS, err := c.Fail(2)
	if err != nil {
		t.Fatal(err)
	}
	if state != "failed" {
		t.Errorf("FAIL state %q, want failed", state)
	}
	if effS != 3 {
		t.Errorf("effective S after one failure = %d, want 3", effS)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Devices != 9 || h.Alive != 8 || h.EffectiveS != 3 || h.FullS != 5 {
		t.Errorf("HEALTH %+v, want devices=9 alive=8 s'=3 s=5", h)
	}
	if len(h.States) != 9 {
		t.Fatalf("HEALTH states %d, want 9", len(h.States))
	}
	if h.States[2].State != "failed" {
		t.Errorf("device 2 state %q, want failed", h.States[2].State)
	}
	want := fmt.Sprintf("HEALTH devices=%d alive=%d s=%d s_full=%d rebuild_pending=%d rebuild_done=%d\n",
		h.Devices, h.Alive, h.EffectiveS, h.FullS, h.RebuildPending, h.RebuildDone)
	for _, d := range h.States {
		want += fmt.Sprintf("DEV %d %s %.6f\n", d.Device, d.State, d.EWMAMS)
	}
	if got := dialText(t, addr).send("HEALTH\n"); got != want+"\n" {
		t.Errorf("text HEALTH:\n%s\nbinary:\n%s", got, want)
	}

	if state, effS, err = c.Recover(2); err != nil {
		t.Fatal(err)
	}
	if state != "healthy" || effS != 5 {
		t.Errorf("RECOVER -> %q S'=%d, want healthy 5", state, effS)
	}

	// Admin errors surface as error frames, not connection drops.
	if _, _, err := c.Fail(99); err == nil {
		t.Error("FAIL 99 (out of range) succeeded")
	}
	if _, _, err := c.Recover(3); err == nil {
		t.Error("RECOVER of a healthy device succeeded")
	}
	if _, err := c.Read(1); err != nil {
		t.Fatalf("connection unusable after admin errors: %v", err)
	}
}

// TestBinaryPipelinedOutOfOrder floods one connection with async submits
// and checks every request completes exactly once, whatever order the
// completions arrive in.
func TestBinaryPipelinedOutOfOrder(t *testing.T) {
	_, addr := startServer(t)
	c := dialBinT(t, addr)

	const n = 500
	chans := make([]<-chan SubmitResult, n)
	for i := 0; i < n; i++ {
		chans[i] = c.SubmitAsync(int64(i))
	}
	seen := make(map[uint64]bool, n)
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("submit %d: %v", i, res.Err)
		}
		if res.Rejected {
			t.Errorf("submit %d rejected under Delay policy", i)
		}
		if seen[res.ID] {
			t.Fatalf("request ID %d completed twice", res.ID)
		}
		seen[res.ID] = true
	}
	req, _, _, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if req != n {
		t.Errorf("STATS requests = %d, want %d", req, n)
	}
}

// TestBinaryBatchThenReadOneArrival pipelines a BATCH and a READ in one
// write. Frames drained from one socket fill share the fill's arrival
// stamp; OpBatch used to take its own, later clock reading, so the READ
// behind it was submitted with an earlier arrival after a later one — out
// of order on its own connection. It shows on the wire: with two of block
// X's three replicas failed, BATCH [X] occupies X's only live replica from
// the batch's arrival for one service time, so READ X is admitted at
// batch arrival + service time, and its delay is exactly one service time
// iff both carried the same arrival (a later batch stamp adds the gap).
// M = 2 keeps S' = 2, so both fit one window.
func TestBinaryBatchThenReadOneArrival(t *testing.T) {
	sys, err := core.New(core.Config{Design: design.Paper931(), M: 2})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := sys.NewHealthMonitor(0, health.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const block = 7
	for _, d := range sys.Replicas(block)[1:] {
		if err := mon.Fail(d); err != nil {
			t.Fatal(err)
		}
	}
	srv := newTestServer(t, sys, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := wire.AppendFrame(nil, wire.Header{Opcode: wire.OpBatch, ID: 1}, wire.AppendBatchReq(nil, []int64{block}))
	buf = wire.AppendFrame(buf, wire.Header{Opcode: wire.OpSubmit, ID: 2}, wire.AppendBlock(nil, block))
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := wire.NewReader(bufio.NewReader(conn), 0)
	h, payload, err := rd.Next()
	if err != nil || h.ID != 1 {
		t.Fatalf("BATCH response: header %+v err %v", h, err)
	}
	batch, err := wire.ParseBatchResp(payload, nil)
	if err != nil || len(batch) != 1 || batch[0].Rejected() || batch[0].DelayMS != 0 {
		t.Fatalf("BATCH outcomes %+v err %v, want one undelayed admission", batch, err)
	}
	h, payload, err = rd.Next()
	if err != nil || h.ID != 2 {
		t.Fatalf("READ response: header %+v err %v", h, err)
	}
	read, _, err := wire.ParseOutcome(payload)
	if err != nil || read.Rejected() {
		t.Fatalf("READ outcome %+v err %v", read, err)
	}
	// (t + svc) − t rounds within ~1e-13 ms of svc; two clock readings are
	// at least tens of nanoseconds (1e-5 ms) apart.
	if gap := read.DelayMS - read.RespMS; gap > 1e-7 || gap < -1e-7 {
		t.Fatalf("READ behind BATCH delayed %.9f ms, want one service time %.9f ms: the two carried different arrivals (gap %.3g ms)",
			read.DelayMS, read.RespMS, gap)
	}
}

// TestBinaryErrorFrames speaks raw frames to check the server's error
// surface: FlagError set, request ID echoed, connection still usable for
// payload-level errors, closed for framing violations.
func TestBinaryErrorFrames(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	wr := wire.NewWriter(bw)
	rd := wire.NewReader(bufio.NewReader(conn), 0)

	send := func(op uint8, id uint64, payload []byte) wire.Header {
		t.Helper()
		if err := wr.WriteFrame(wire.Header{Opcode: op, ID: id}, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		h, _, err := rd.Next()
		if err != nil {
			t.Fatalf("op 0x%02x: %v", op, err)
		}
		if h.ID != id {
			t.Errorf("op 0x%02x echoed ID %d, want %d", op, h.ID, id)
		}
		return h
	}

	if h := send(0xEE, 7, nil); h.Flags&wire.FlagError == 0 {
		t.Error("unknown opcode did not set FlagError")
	}
	if h := send(wire.OpSubmit, 8, []byte{1, 2}); h.Flags&wire.FlagError == 0 {
		t.Error("short READ payload did not set FlagError")
	}
	if h := send(wire.OpHealth, 9, nil); h.Flags&wire.FlagError == 0 {
		t.Error("HEALTH without a monitor did not set FlagError")
	}
	// Still alive after three error frames.
	if h := send(wire.OpSubmit, 10, wire.AppendBlock(nil, 5)); h.Flags&wire.FlagError != 0 {
		t.Error("valid READ after errors got an error frame")
	}

	// A framing violation kills the connection: error frame then EOF. The
	// reader waits for a whole header before judging it, so send 16 bytes.
	bw.Write(bytes.Repeat([]byte{0x00}, wire.HeaderSize))
	bw.Flush()
	h, payload, err := rd.Next()
	if err != nil {
		t.Fatalf("expected an error frame before close, got %v", err)
	}
	if h.Flags&wire.FlagError == 0 || len(payload) == 0 {
		t.Errorf("framing violation answer: flags 0x%02x payload %q", h.Flags, payload)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := rd.Next(); err == nil {
		t.Error("connection stayed open after a framing violation")
	}
}

// TestProtoGating checks -proto enforcement: a text-only server refuses
// the magic byte with a text error, a binary-only server refuses text
// verbs with an error frame, and both modes work when enabled.
func TestProtoGating(t *testing.T) {
	_, textAddr := startServerOpts(t, Options{Proto: ProtoText})
	conn, err := net.Dial("tcp", textAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(wire.AppendFrame(nil, wire.Header{Opcode: wire.OpStats, ID: 1}, nil))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := "ERR binary protocol disabled\n"; line != want {
		t.Errorf("text-only server answered %q, want %q", line, want)
	}

	_, binAddr := startServerOpts(t, Options{Proto: ProtoBinary})
	conn2, err := net.Dial("tcp", binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.Write([]byte("READ 1\n"))
	h, payload, err := wire.NewReader(bufio.NewReader(conn2), 0).Next()
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags&wire.FlagError == 0 || !bytes.Contains(payload, []byte("text protocol disabled")) {
		t.Errorf("binary-only server answered flags 0x%02x %q", h.Flags, payload)
	}

	// Binary verbs work on the binary-only server.
	bc := dialBinT(t, binAddr)
	if _, err := bc.Read(1); err != nil {
		t.Fatal(err)
	}
	// Text verbs work on the text-only server.
	if got := dialText(t, textAddr).do("READ 1"); !strings.HasPrefix(got, "OK ") {
		t.Fatalf("text-only server answered READ 1 with %q", got)
	}
}

// TestMixedProtocolStress interleaves text and binary clients against one
// server — the -race companion to the protocol-equivalence tests. STATS
// must account for every request exactly once across both front ends.
func TestMixedProtocolStress(t *testing.T) {
	_, addr := startShardedServer(t, 2)
	const (
		clients = 6 // per protocol
		each    = 120
	)
	var wg sync.WaitGroup
	errc := make(chan error, 2*clients)
	for i := 0; i < clients; i++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			if err := textReads(addr, seed*1000, each); err != nil {
				errc <- err
			}
		}(int64(i))
		go func(seed int64) {
			defer wg.Done()
			c, err := DialBinary(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			chans := make([]<-chan SubmitResult, 0, each)
			for j := 0; j < each; j++ {
				chans = append(chans, c.SubmitAsync(seed*1000+int64(j)))
			}
			for _, ch := range chans {
				if res := <-ch; res.Err != nil {
					errc <- res.Err
					return
				}
			}
		}(int64(clients + i))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	c := dialBinT(t, addr)
	req, _, rej, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * clients * each); req != want {
		t.Errorf("STATS requests = %d, want %d", req, want)
	}
	if rej != 0 {
		t.Errorf("STATS rejected = %d, want 0 under Delay policy", rej)
	}
}

// TestAppendMetricsAllocs pins the METRICS scrape path: with a warm
// scratch buffer, rendering the full exposition page allocates nothing.
func TestAppendMetricsAllocs(t *testing.T) {
	sys, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewHealthMonitor(0, health.Config{}); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, sys, Options{})
	scratch := srv.appendMetrics(make([]byte, 0, 4096), true) // warm the buffer
	if len(scratch) == 0 {
		t.Fatal("empty metrics page")
	}
	allocs := testing.AllocsPerRun(100, func() {
		scratch = srv.appendMetrics(scratch[:0], true)
	})
	if allocs != 0 {
		t.Errorf("appendMetrics allocated %.1f objects/run, want 0", allocs)
	}
}

// TestReadLineLimits is the MaxLineBytes contract, table-driven at the
// exact boundary: content of max bytes is served, max+1 is rejected, the
// terminator (\n or \r\n) never counts, and the answer is identical when
// the line spans multiple bufio fills (forced by a tiny reader buffer).
func TestReadLineLimits(t *testing.T) {
	const max = 64
	long := func(n int, term string) string {
		return string(bytes.Repeat([]byte{'a'}, n)) + term
	}
	cases := []struct {
		name     string
		input    string
		bufSize  int // bufio reader size; 16 forces ErrBufferFull spans
		wantLine string
		tooLong  bool
	}{
		{"exactly max", long(max, "\n"), 4096, long(max, "\n"), false},
		{"one over max", long(max+1, "\n"), 4096, "", true},
		{"exactly max CRLF", long(max, "\r\n"), 4096, long(max, "\r\n"), false},
		{"one over max CRLF", long(max+1, "\r\n"), 4096, "", true},
		{"exactly max spanning fills", long(max, "\n"), 16, long(max, "\n"), false},
		{"one over max spanning fills", long(max+1, "\n"), 16, "", true},
		{"exactly max unterminated EOF", long(max, ""), 16, long(max, ""), false},
		{"over max unterminated EOF", long(max+1, ""), 16, "", true},
		{"empty line", "\n", 4096, "\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bufio.NewReaderSize(bytes.NewReader([]byte(tc.input)), tc.bufSize)
			line, tooLong, err := readLine(r, max)
			if tc.tooLong {
				if !tooLong {
					t.Fatalf("readLine(%d bytes content) not flagged too long", len(tc.input))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tooLong {
				t.Fatal("readLine flagged a max-length line too long")
			}
			if string(line) != tc.wantLine {
				t.Errorf("readLine = %q, want %q", line, tc.wantLine)
			}
		})
	}

	// An oversized line must not poison the connection: the next line
	// still parses.
	r := bufio.NewReaderSize(bytes.NewReader([]byte(long(max*3, "\n")+"READ 1\n")), 16)
	if _, tooLong, err := readLine(r, max); err != nil || !tooLong {
		t.Fatalf("oversized line: tooLong=%v err=%v", tooLong, err)
	}
	line, tooLong, err := readLine(r, max)
	if err != nil || tooLong || string(line) != "READ 1\n" {
		t.Fatalf("line after oversized = %q tooLong=%v err=%v", line, tooLong, err)
	}
}
