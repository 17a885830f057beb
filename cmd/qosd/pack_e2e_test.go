package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"flashqos/internal/pack"
	"flashqos/internal/qosnet"
)

// buildQosd compiles the daemon once per test into its own temp dir.
func buildQosd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qosd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startPackQosd launches qosd -backend pack on dir and returns the bound
// address plus the running command. Extra args append to the baseline.
func startPackQosd(t *testing.T, bin, dir string, extra ...string) (*exec.Cmd, string, io.ReadCloser) {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-backend", "pack",
		"-data-dir", dir,
		"-pack-sync", "1ms",
		"-drain-timeout", "3s",
	}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		t.Fatalf("qosd produced no output: %v", sc.Err())
	}
	banner := sc.Text()
	i := strings.LastIndex(banner, "listening on ")
	if i < 0 {
		cmd.Process.Kill()
		t.Fatalf("unexpected banner %q", banner)
	}
	if !strings.Contains(banner, "backend pack") {
		cmd.Process.Kill()
		t.Fatalf("banner does not announce the pack backend: %q", banner)
	}
	return cmd, strings.TrimSpace(banner[i+len("listening on "):]), stdout
}

func packPayload(block int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int64(i)*17 + block*31 + 7)
	}
	return b
}

// stopClean SIGINTs the daemon and waits for a clean exit.
func stopClean(t *testing.T, cmd *exec.Cmd, stdout io.Reader) {
	t.Helper()
	var rest bytes.Buffer
	drained := make(chan struct{})
	go func() {
		io.Copy(&rest, stdout)
		close(drained)
	}()
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		<-drained
		waited <- cmd.Wait()
	}()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("qosd exited with %v, want clean exit:\n%s", err, rest.String())
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("qosd did not exit after SIGINT")
	}
	if !strings.Contains(rest.String(), "qosd: bye") {
		t.Fatalf("clean-drain farewell missing:\n%s", rest.String())
	}
}

// TestBackendFlag pins the -backend choices: flashsim and mem start the
// same timing-only daemon, while pack without -data-dir and an unknown
// name exit with an error.
func TestBackendFlag(t *testing.T) {
	bin := buildQosd(t)
	for _, be := range []string{"flashsim", "mem"} {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-backend", be, "-drain-timeout", "1s")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		ok := sc.Scan() && strings.Contains(sc.Text(), "backend "+be+",") && strings.Contains(sc.Text(), "listening on ")
		cmd.Process.Kill()
		cmd.Wait()
		if !ok {
			t.Fatalf("-backend %s: banner %q", be, sc.Text())
		}
	}
	for _, be := range []string{"pack", "bogus"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-backend", be).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil || timedOut {
			t.Errorf("-backend %s (no -data-dir): err %v, want an error exit\n%s", be, err, out)
		}
	}
}

// TestPackEndToEnd is the acceptance round-trip: qosd -backend pack
// serves PUT then GET of real bytes over the binary protocol with QoS
// admission in front, the payloads survive a clean restart, and the
// flashsim timing verbs keep working on the same server.
func TestPackEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the qosd binary")
	}
	bin := buildQosd(t)
	dir := t.TempDir()
	cmd, addr, stdout := startPackQosd(t, bin, dir)
	defer cmd.Process.Kill()

	c, err := qosnet.DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for b := int64(0); b < n; b++ {
		r, err := c.Put(b, packPayload(b, 256+int(b)))
		if err != nil {
			t.Fatalf("put %d: %v", b, err)
		}
		if r.Rejected {
			t.Fatalf("put %d rejected under light load", b)
		}
	}
	for b := int64(0); b < n; b++ {
		r, data, err := c.Get(b)
		if err != nil {
			t.Fatalf("get %d: %v", b, err)
		}
		if r.Rejected || !bytes.Equal(data, packPayload(b, 256+int(b))) {
			t.Fatalf("get %d: rejected=%v, %d bytes", b, r.Rejected, len(data))
		}
	}
	// Admission still fronts the timing verbs, and a missing block errors.
	if res, err := c.Read(1); err != nil || res.Rejected {
		t.Fatalf("timing READ on pack backend: %+v, %v", res, err)
	}
	if _, _, err := c.Get(777_777); err == nil {
		t.Fatal("GET of a never-written block succeeded")
	}
	c.Close()
	stopClean(t, cmd, stdout)

	// Restart on the same directory: the index rebuild must serve every
	// payload byte-for-byte.
	cmd2, addr2, stdout2 := startPackQosd(t, bin, dir)
	defer cmd2.Process.Kill()
	c2, err := qosnet.DialBinary(addr2)
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < n; b++ {
		_, data, err := c2.Get(b)
		if err != nil || !bytes.Equal(data, packPayload(b, 256+int(b))) {
			t.Fatalf("get %d after restart: %v", b, err)
		}
	}
	c2.Close()
	stopClean(t, cmd2, stdout2)
}

// TestPackCrashRecovery is the satellite crash e2e: kill -9 a pack-backed
// qosd mid-write, corrupt the volume tail like a torn append, restart,
// and assert (a) the index scan truncated the torn tail and (b) every
// PUT acknowledged before the kill round-trips byte-for-byte.
func TestPackCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the qosd binary")
	}
	bin := buildQosd(t)
	dir := t.TempDir()
	cmd, addr, stdout := startPackQosd(t, bin, dir)
	go io.Copy(io.Discard, stdout)
	defer cmd.Process.Kill()

	c, err := qosnet.DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: a settled prefix of acknowledged writes.
	const settled = 100
	for b := int64(0); b < settled; b++ {
		if _, err := c.Put(b, packPayload(b, 512)); err != nil {
			t.Fatalf("put %d: %v", b, err)
		}
	}
	// Phase 2: keep writing until the kill lands mid-stream; every block in
	// acked got a success response before the crash, nothing else did.
	acked := make([]int64, 0, 4096)
	for b := int64(0); b < settled; b++ {
		acked = append(acked, b)
	}
	var ackedMu sync.Mutex
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		for b := int64(settled); b < settled+100_000; b++ {
			res := <-c.PutAsync(b, packPayload(b, 512))
			if res.Err != nil {
				return // connection died under the kill
			}
			if res.Rejected {
				continue // admission pushed back; not acknowledged, not durable
			}
			ackedMu.Lock()
			acked = append(acked, b)
			ackedMu.Unlock()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-floodDone
	cmd.Wait()
	ackedMu.Lock()
	defer ackedMu.Unlock()
	if len(acked) <= settled {
		t.Fatalf("flood acknowledged nothing past the settled prefix (%d acked)", len(acked))
	}

	// Simulate a torn append the kill could have left: a needle header
	// claiming 4096 payload bytes with only a fragment behind it, plus
	// trailing garbage, appended to a real volume.
	vol := filepath.Join(dir, "vol-0000.pack")
	fi, err := os.Stat(vol)
	if err != nil {
		t.Fatal(err)
	}
	preSize := fi.Size()
	f, err := os.OpenFile(vol, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := pack.AppendNeedle(nil, 999_999, packPayload(999_999, 4096))[:pack.NeedleHeaderSize+100]
	torn = append(torn, []byte("garbage after the torn record")...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart: the index scan must drop the whole torn tail — our injected
	// garbage, plus any half-written needle the SIGKILL itself left — and
	// serve every acknowledged PUT byte-for-byte (a replica whose copy sat
	// in the lost tail is covered by a fsynced one elsewhere).
	cmd2, addr2, stdout2 := startPackQosd(t, bin, dir)
	defer cmd2.Process.Kill()
	fi2, err := os.Stat(vol)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() > preSize {
		t.Fatalf("vol-0000 is %d bytes after recovery, want torn tail truncated to at most %d", fi2.Size(), preSize)
	}
	c2, err := qosnet.DialBinary(addr2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range acked {
		_, data, err := c2.Get(b)
		if err != nil {
			t.Fatalf("acknowledged block %d lost after crash: %v", b, err)
		}
		if !bytes.Equal(data, packPayload(b, 512)) {
			t.Fatalf("acknowledged block %d corrupted after crash", b)
		}
	}
	if _, _, err := c2.Get(999_999); err == nil {
		t.Fatal("torn needle visible after recovery")
	}
	c2.Close()
	stopClean(t, cmd2, stdout2)
}
