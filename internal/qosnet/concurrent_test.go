package qosnet

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/design"
)

func startServerOpts(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	sys, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, sys, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr.String()
}

// TestConcurrentClientsStress is the satellite invariant test: N client
// goroutines × M requests each against one Server. STATS totals must be
// exactly N×M, nothing may be rejected under the Delay policy, and the
// per-interval admission count recorded by the concurrent pipeline must
// never exceed S. Run under -race this exercises every concurrent path in
// the server (virtual clock, sharded admission, atomic stats).
func TestConcurrentClientsStress(t *testing.T) {
	srv, addr := startServerOpts(t, Options{MaxConns: 64})
	const (
		clients    = 12
		perClient  = 50
		totalReads = clients * perClient
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			// An admitted "OK" reply is required: nothing may be rejected
			// under the Delay policy.
			if err := textReads(addr, base*1_000_000, perClient); err != nil {
				errs <- fmt.Errorf("client %d: %w", base, err)
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	reqs, delayed, rejected, avg, err := dialBinT(t, addr).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if reqs != totalReads {
		t.Errorf("STATS requests = %d, want %d", reqs, totalReads)
	}
	if rejected != 0 {
		t.Errorf("STATS rejected = %d, want 0", rejected)
	}
	if delayed > 0 && avg <= 0 {
		t.Errorf("delayed %d requests but avg delay %.6f", delayed, avg)
	}
	if max, s := srv.arr.System(0).MaxWindowCount(), srv.arr.System(0).S(); max > s {
		t.Errorf("a window admitted %d requests, limit S=%d", max, s)
	}
}

// TestNowMonotonicUnderRace hammers the virtual clock from many
// goroutines: every goroutine must observe a non-decreasing sequence, and
// -race must stay silent (the satellite fix: now() used to mutate lastT
// unsynchronized, which was only safe under the old global mutex).
func TestNowMonotonicUnderRace(t *testing.T) {
	sys, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, sys, Options{})
	const goroutines, calls = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := -1.0
			for i := 0; i < calls; i++ {
				now := srv.now()
				if now < prev {
					t.Errorf("clock went backwards: %.9f after %.9f", now, prev)
					return
				}
				prev = now
			}
		}()
	}
	wg.Wait()
}

// TestOversizedLine checks the robustness control: a request line over
// MaxLineBytes is rejected with ERR and discarded, and the connection
// stays usable for well-formed requests.
func TestOversizedLine(t *testing.T) {
	_, addr := startServerOpts(t, Options{MaxLineBytes: 64})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	// Far longer than both MaxLineBytes and the reader's internal buffer.
	fmt.Fprintf(conn, "READ %s\n", strings.Repeat("9", 20000))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR line too long") {
		t.Errorf("oversized line answered %q", line)
	}

	fmt.Fprintln(conn, "READ 42")
	line, err = r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK") {
		t.Errorf("connection unusable after oversized line: %q", line)
	}
}

// TestReadTimeout checks an idle connection is closed once the per-line
// read deadline passes.
func TestReadTimeout(t *testing.T) {
	_, addr := startServerOpts(t, Options{ReadTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("idle connection still open past the read deadline")
	}
}

// TestMaxConns checks the backpressure path: with MaxConns=1 a second
// connection is refused with "ERR server busy", and capacity frees up
// once the first connection closes.
func TestMaxConns(t *testing.T) {
	_, addr := startServerOpts(t, Options{MaxConns: 1})

	first, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Read(1); err != nil {
		t.Fatal(err)
	}

	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(second).ReadString('\n')
	if err != nil {
		t.Fatalf("refused connection: want ERR line, got %v", err)
	}
	if !strings.HasPrefix(line, "ERR server busy") {
		t.Errorf("over-capacity connection answered %q", line)
	}

	first.Close()
	// The slot frees asynchronously as the handler unwinds; retry briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := DialBinary(addr)
		if err == nil {
			if _, err := c.Read(2); err == nil {
				c.Close()
				return
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("capacity never freed after first connection closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownDrainClean checks Shutdown returns nil when connections
// finish within the drain window.
func TestShutdownDrainClean(t *testing.T) {
	srv, addr := startServerOpts(t, Options{})
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(7); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Errorf("Shutdown after clients left = %v, want nil", err)
	}
}

// TestShutdownDrainForced checks a connection that never leaves is
// force-closed after the drain timeout and Shutdown reports it.
func TestShutdownDrainForced(t *testing.T) {
	srv, addr := startServerOpts(t, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Prove the handler is live, then go idle without closing.
	fmt.Fprintln(conn, "READ 1")
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	err = srv.Shutdown(100 * time.Millisecond)
	if err != ErrForcedClose {
		t.Errorf("Shutdown = %v, want ErrForcedClose", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("forced shutdown took %v", took)
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}

// TestPipelinedRequests checks many requests written before any response
// is read are all answered, in order, on one connection.
func TestPipelinedRequests(t *testing.T) {
	_, addr := startServerOpts(t, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 200
	var req strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "READ %d\n", i)
	}
	if _, err := conn.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !strings.HasPrefix(line, "OK") && !strings.HasPrefix(line, "REJECTED") {
			t.Fatalf("response %d: %q", i, line)
		}
	}
}
