package qosnet

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/shard"
)

// newTestServer serves one system as a one-shard array.
func newTestServer(t testing.TB, sys *core.System, opts Options) *Server {
	t.Helper()
	arr, err := shard.FromSystems(sys)
	if err != nil {
		t.Fatal(err)
	}
	return NewServerSharded(arr, opts)
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	sys, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, sys, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr.String()
}

func TestReadRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	line := dialText(t, addr).do("READ 42")
	var dev int
	var delay, resp float64
	var delayed bool
	if _, err := fmt.Sscanf(line, "OK %d %f %f %t", &dev, &delay, &resp, &delayed); err != nil {
		t.Fatalf("first read answered %q: %v", line, err)
	}
	if dev < 0 || dev > 8 {
		t.Errorf("device %d out of range", dev)
	}
	if resp < 0.132 || resp > 0.134 {
		t.Errorf("response %.6f, want ≈ 0.1325 (the guarantee)", resp)
	}
}

func TestMap(t *testing.T) {
	_, addr := startServer(t)
	f := strings.Fields(dialText(t, addr).do("MAP 100"))
	if len(f) != 5 || f[0] != "MAP" {
		t.Fatalf("MAP 100 answered %q, want MAP <designBlock> and 3 replica devices", f)
	}
	if want := fmt.Sprint(100 % 36); f[1] != want {
		t.Errorf("design block %s, want modulo fallback %s", f[1], want)
	}
	seen := map[int]bool{}
	for _, tok := range f[2:] {
		d, err := strconv.Atoi(tok)
		if err != nil || d < 0 || d > 8 || seen[d] {
			t.Errorf("bad replica set %v", f[2:])
		}
		seen[d] = true
	}
}

func TestStatsAndConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			if err := textReads(addr, base*1000, perClient); err != nil {
				t.Error(err)
			}
		}(int64(i))
	}
	wg.Wait()
	var reqs, delayed, rejected int64
	var avg float64
	line := dialText(t, addr).do("STATS")
	if _, err := fmt.Sscanf(line, "STATS %d %d %d %f", &reqs, &delayed, &rejected, &avg); err != nil {
		t.Fatalf("STATS answered %q: %v", line, err)
	}
	if reqs != clients*perClient {
		t.Errorf("requests = %d, want %d", reqs, clients*perClient)
	}
	if rejected != 0 {
		t.Errorf("rejected = %d, want 0 (delay policy)", rejected)
	}
	if delayed > 0 && avg <= 0 {
		t.Error("delayed requests with zero average delay")
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(line string) string {
		fmt.Fprintln(conn, line)
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read after %q: %v", line, err)
		}
		return strings.TrimSpace(resp)
	}
	if got := send("READ"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("READ without arg: %q", got)
	}
	if got := send("READ abc"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("READ abc: %q", got)
	}
	if got := send("BOGUS 1"); !strings.HasPrefix(got, "ERR") {
		t.Errorf("unknown command: %q", got)
	}
	if got := send("MAP 5"); !strings.HasPrefix(got, "MAP 5") {
		t.Errorf("MAP 5: %q", got)
	}
}

func TestServeBeforeListen(t *testing.T) {
	sys, _ := core.New(core.Config{Design: design.Paper931()})
	srv := newTestServer(t, sys, Options{})
	if err := srv.Serve(); err == nil {
		t.Error("Serve before Listen should fail")
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	_, addr := startServer(t) // Cleanup closes it
	if reply := dialText(t, addr).send("QUIT\n"); reply != "" {
		t.Errorf("QUIT answered %q, want the connection closed", reply)
	}
}

func TestMetrics(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, "READ 1")
	r := bufio.NewReader(conn)
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(conn, "METRICS")
	var lines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		lines = append(lines, line)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"flashqos_requests_total 1",
		"flashqos_rejected_total 0",
		"flashqos_admission_limit 5",
		"flashqos_q_estimate 0",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("metrics missing %q in:\n%s", want, joined)
		}
	}
}

func TestWriteCommand(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprintln(conn, "WRITE 5")
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK") {
		t.Fatalf("WRITE response: %q", line)
	}
	// Write response spans the program time, longer than a read.
	var dev int
	var delay, resp float64
	var delayed string
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "OK %d %f %f %s", &dev, &delay, &resp, &delayed); err != nil {
		t.Fatal(err)
	}
	if resp < 0.3 {
		t.Errorf("write response %.4f, want >= program time 0.35", resp)
	}
}

func TestClientMetrics(t *testing.T) {
	_, addr := startServer(t)
	c := dialBinT(t, addr)
	if _, err := c.Read(3); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "flashqos_requests_total 1") {
		t.Errorf("metrics text missing counters:\n%s", m)
	}
}
