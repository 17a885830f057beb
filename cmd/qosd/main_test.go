package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flashqos/internal/qosnet"
)

// TestEndToEnd builds the qosd binary, starts it on an ephemeral port,
// replays the package doc's nc session over a raw socket (the text front
// end), drives READ/MAP/STATS/METRICS through the binary client, then
// sends SIGINT and checks the shutdown drains cleanly with exit code 0.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the qosd binary")
	}
	bin := filepath.Join(t.TempDir(), "qosd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-max-conns", "8",
		"-read-timeout", "30s",
		"-drain-timeout", "3s",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// First line announces the bound address; capture the rest for the
	// shutdown assertions.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("qosd produced no output: %v", sc.Err())
	}
	banner := sc.Text()
	i := strings.LastIndex(banner, "listening on ")
	if i < 0 {
		t.Fatalf("unexpected banner %q", banner)
	}
	addr := strings.TrimSpace(banner[i+len("listening on "):])
	var rest bytes.Buffer
	var restWG sync.WaitGroup
	restWG.Add(1)
	go func() {
		defer restWG.Done()
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
	}()

	// printf 'READ 42\nSTATS\nQUIT\n' | nc <addr>
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	io.WriteString(nc, "READ 42\nSTATS\nQUIT\n")
	reply, err := io.ReadAll(nc) // QUIT closes the connection
	nc.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(reply), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "OK ") || lines[1] != "STATS 1 0 0 0.000000" || lines[2] != "" {
		t.Errorf("nc session answered %q, want an OK line, then STATS 1 0 0 0.000000", reply)
	}

	c, err := qosnet.DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected {
		t.Error("first READ rejected")
	}
	if res.Device < 0 || res.Device > 8 {
		t.Errorf("device %d out of range for the (9,3,1) design", res.Device)
	}
	db, devs, err := c.Map(42)
	if err != nil {
		t.Fatal(err)
	}
	if db != 42%36 || len(devs) != 3 {
		t.Errorf("MAP 42 = (%d, %v), want design block %d with 3 replicas", db, devs, 42%36)
	}
	reqs, _, rejected, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if reqs != 2 || rejected != 0 {
		t.Errorf("STATS = %d requests / %d rejected, want 2 / 0", reqs, rejected)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flashqos_requests_total 2", "flashqos_admission_limit 5"} {
		if !strings.Contains(m, want) {
			t.Errorf("METRICS missing %q:\n%s", want, m)
		}
	}
	c.Close() // sends OpQuit so the drain has nothing left to wait for

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	// Drain stdout to EOF before Wait: Wait closes the pipe and would
	// race the scanner out of the final shutdown lines.
	waited := make(chan error, 1)
	go func() {
		restWG.Wait()
		waited <- cmd.Wait()
	}()
	select {
	case err := <-waited:
		if err != nil {
			t.Errorf("qosd exited with %v, want clean exit", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("qosd did not exit after SIGINT")
	}
	out := rest.String()
	if !strings.Contains(out, "shutting down") {
		t.Errorf("shutdown message missing from output:\n%s", out)
	}
	if !strings.Contains(out, "qosd: bye") {
		t.Errorf("clean-drain farewell missing from output:\n%s", out)
	}
}

// TestEndToEndBusy checks the -max-conns backpressure from outside the
// process: with a cap of 1, a second concurrent connection is refused.
func TestEndToEndBusy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the qosd binary")
	}
	bin := filepath.Join(t.TempDir(), "qosd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-max-conns", "1", "-drain-timeout", "1s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
		}
	}()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("qosd produced no output: %v", sc.Err())
	}
	banner := sc.Text()
	i := strings.LastIndex(banner, "listening on ")
	if i < 0 {
		t.Fatalf("unexpected banner %q", banner)
	}
	addr := strings.TrimSpace(banner[i+len("listening on "):])
	go io.Copy(io.Discard, stdout)

	first, err := qosnet.DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := first.Read(1); err != nil {
		t.Fatal(err)
	}
	// Dial succeeds at the TCP level; the refusal arrives as an ERR line
	// pushed by the server before it closes the connection.
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
}
