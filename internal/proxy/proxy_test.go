package proxy

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/health"
	"flashqos/internal/qosnet"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

// startBackend runs one in-process qosd-shaped backend: a single-shard
// (9,3,1) array with a health monitor, served over the binary protocol.
func startBackend(t testing.TB) (*qosnet.Server, string) {
	t.Helper()
	arr, err := shard.New(1, core.Config{N: 9, C: 3, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = arr.NewHealthMonitors(200, health.Config{SuspectAfter: 3, FailAfter: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := qosnet.NewServerSharded(arr, qosnet.Options{Proto: qosnet.ProtoBinary})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr.String()
}

// startProxy fronts the given backends and returns a connected client.
func startProxy(t testing.TB, opts Options, addrs ...string) (*Proxy, *qosnet.BinaryClient) {
	t.Helper()
	p, err := New(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve()
	t.Cleanup(func() { p.Close() })
	c, err := qosnet.DialBinary(bound.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return p, c
}

// TestProxyMalformedFrameError: a client frame the proxy cannot decode —
// here a header announcing a 4 GiB payload — is answered with an error
// frame before the connection closes, on every connection.
func TestProxyMalformedFrameError(t *testing.T) {
	_, a0 := startBackend(t)
	p, err := New([]string{a0}, Options{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve()
	t.Cleanup(func() { p.Close() })
	frame := wire.AppendHeader(nil, wire.Header{Opcode: wire.OpSubmit, ID: 1, Len: 1<<32 - 1})
	got := 0
	for i := 0; i < 200; i++ {
		conn, err := net.Dial("tcp", bound.String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		h, _, err := wire.NewReader(bufio.NewReader(conn), 0).Next()
		if err == nil && h.Flags&wire.FlagError != 0 {
			got++
		}
		conn.Close()
	}
	if got != 200 {
		t.Fatalf("error frame delivered on %d of 200 connections", got)
	}
}

// TestProxyRoutesByBlock checks that READ/WRITE/MAP through the proxy land
// on the backend shard.Route picks, with outcomes remapped to the global
// device numbering (backend i owns devices [9i, 9i+9)).
func TestProxyRoutesByBlock(t *testing.T) {
	_, a0 := startBackend(t)
	_, a1 := startBackend(t)
	p, c := startProxy(t, Options{ProbeInterval: -1}, a0, a1)
	if p.Devices() != 18 {
		t.Fatalf("Devices() = %d, want 18", p.Devices())
	}
	for block := int64(0); block < 24; block++ {
		want := shard.Route(block, 2)
		res, err := c.Read(block)
		if err != nil {
			t.Fatalf("READ %d: %v", block, err)
		}
		if res.Rejected {
			continue
		}
		if got := res.Device / 9; got != want {
			t.Errorf("READ %d served by backend %d (device %d), want backend %d",
				block, got, res.Device, want)
		}
		db, devs, err := c.Map(block)
		if err != nil {
			t.Fatalf("MAP %d: %v", block, err)
		}
		if db != int(block%36) || len(devs) != 3 {
			t.Errorf("MAP %d = (%d, %v), want design block %d with 3 replicas", block, db, devs, block%36)
		}
		for _, d := range devs {
			if d/9 != want {
				t.Errorf("MAP %d replica device %d outside backend %d's window", block, d, want)
			}
		}
	}
	if res, err := c.Write(7); err != nil {
		t.Fatalf("WRITE: %v", err)
	} else if !res.Rejected && res.Device/9 != shard.Route(7, 2) {
		t.Errorf("WRITE 7 device %d on wrong backend", res.Device)
	}
}

// TestProxyBatchAndAggregation drives BATCH across both backends and then
// checks the fan-out verbs: STATS sums request counters, HEALTH merges the
// device reports under global ids, SHARDSTATS concatenates, METRICS
// exposes the proxy gauges.
func TestProxyBatchAndAggregation(t *testing.T) {
	_, a0 := startBackend(t)
	_, a1 := startBackend(t)
	_, c := startProxy(t, Options{ProbeInterval: -1}, a0, a1)

	blocks := make([]int64, 10)
	for i := range blocks {
		blocks[i] = int64(i * 5)
	}
	outs, err := c.Batch(blocks)
	if err != nil {
		t.Fatalf("BATCH: %v", err)
	}
	if len(outs) != len(blocks) {
		t.Fatalf("BATCH returned %d outcomes, want %d", len(outs), len(blocks))
	}
	for i, o := range outs {
		if o.Rejected {
			continue
		}
		if want := shard.Route(blocks[i], 2); o.Device/9 != want {
			t.Errorf("batch block %d served by device %d, want backend %d", blocks[i], o.Device, want)
		}
	}

	reqs, _, rejected, _, err := c.Stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if reqs != int64(len(blocks)) || rejected != 0 {
		t.Errorf("STATS = %d requests / %d rejected, want %d / 0", reqs, rejected, len(blocks))
	}

	h, err := c.Health()
	if err != nil {
		t.Fatalf("HEALTH: %v", err)
	}
	if h.Devices != 18 || h.Alive != 18 || len(h.States) != 18 {
		t.Errorf("HEALTH = %d devices / %d alive / %d states, want 18/18/18",
			h.Devices, h.Alive, len(h.States))
	}
	for i, d := range h.States {
		if int(d.Device) != i {
			t.Errorf("HEALTH state %d has device %d, want global ids in order", i, d.Device)
		}
	}

	gs, err := c.ShardStats()
	if err != nil {
		t.Fatalf("SHARDSTATS: %v", err)
	}
	if len(gs) != 2 {
		t.Errorf("SHARDSTATS returned %d gauges, want 2 (one shard per backend)", len(gs))
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("METRICS: %v", err)
	}
	for _, want := range []string{
		"flashqos_proxy_backends 2",
		"flashqos_proxy_backend_up{backend=\"0\"",
		"flashqos_proxy_requests_total 10",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("METRICS missing %q:\n%s", want, m)
		}
	}
}

// TestProxyAdminByGlobalDevice fails a device owned by the second backend
// through the proxy and checks the degradation is visible — and scoped to
// that backend — in the aggregated HEALTH report.
func TestProxyAdminByGlobalDevice(t *testing.T) {
	_, a0 := startBackend(t)
	_, a1 := startBackend(t)
	_, c := startProxy(t, Options{ProbeInterval: -1}, a0, a1)

	state, _, err := c.Fail(9) // backend 1, local device 0
	if err != nil {
		t.Fatalf("FAIL 9: %v", err)
	}
	if state != "failed" {
		t.Errorf("FAIL 9 state = %q, want failed", state)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatalf("HEALTH: %v", err)
	}
	if h.Alive != 17 {
		t.Errorf("HEALTH alive = %d after failing one device, want 17", h.Alive)
	}
	if h.States[9].State != "failed" {
		t.Errorf("global device 9 state = %q, want failed", h.States[9].State)
	}
	if h.States[0].State != "healthy" {
		t.Errorf("backend 0's device 0 state = %q, want healthy (failure must not leak)", h.States[0].State)
	}
	if _, _, err := c.Recover(9); err != nil {
		t.Fatalf("RECOVER 9: %v", err)
	}
	if _, _, err := c.Fail(18); err == nil {
		t.Error("FAIL 18 succeeded, want error for out-of-range global device")
	}
}

// TestProxyBackendEjection kills one backend and checks the prober ejects
// it: its blocks answer error frames, the other backend keeps serving, and
// HEALTH degrades to unreachable devices instead of failing outright.
func TestProxyBackendEjection(t *testing.T) {
	_, a0 := startBackend(t)
	srv1, a1 := startBackend(t)
	p, c := startProxy(t, Options{ProbeInterval: 20 * time.Millisecond, EjectAfter: 2}, a0, a1)

	srv1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for p.backends[1].up.Load() {
		if time.Now().After(deadline) {
			t.Fatal("backend 1 not ejected after close")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Blocks owned by the dead backend answer error frames; the live
	// backend keeps admitting.
	served, failed := 0, 0
	for block := int64(0); block < 32; block++ {
		res, err := c.Read(block)
		owner := shard.Route(block, 2)
		if owner == 1 {
			if err == nil {
				t.Errorf("READ %d (dead backend) succeeded with device %d", block, res.Device)
			}
			failed++
			continue
		}
		if err != nil {
			t.Errorf("READ %d (live backend): %v", block, err)
			continue
		}
		served++
	}
	if served == 0 || failed == 0 {
		t.Fatalf("route split degenerate: %d served, %d dead-routed", served, failed)
	}

	h, err := c.Health()
	if err != nil {
		t.Fatalf("HEALTH with ejected backend: %v", err)
	}
	if h.Devices != 18 || h.Alive != 9 {
		t.Errorf("HEALTH = %d devices / %d alive, want 18 / 9", h.Devices, h.Alive)
	}
	unreachable := 0
	for _, d := range h.States {
		if d.State == "unreachable" {
			unreachable++
		}
	}
	if unreachable != 9 {
		t.Errorf("HEALTH reports %d unreachable devices, want 9", unreachable)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("METRICS with ejected backend: %v", err)
	}
	if !strings.Contains(m, "\"} 0\n") {
		t.Errorf("METRICS missing a backend_up 0 gauge:\n%s", m)
	}
}

// BenchmarkProxyForward measures the router tier's hot path: pipelined
// READs from one client through an in-process proxy to one backend, 64 in
// flight at a time. Each op is one READ forwarded, admitted and answered
// back through the proxy's response writer.
func BenchmarkProxyForward(b *testing.B) {
	_, addr := startBackend(b)
	_, c := startProxy(b, Options{ProbeInterval: -1}, addr)
	const window = 64
	inflight := make([]<-chan qosnet.SubmitResult, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inflight = append(inflight, c.SubmitAsync(int64(i)))
		if len(inflight) == window || i == b.N-1 {
			for _, ch := range inflight {
				if r := <-ch; r.Err != nil {
					b.Fatal(r.Err)
				}
			}
			inflight = inflight[:0]
		}
	}
}
