package qosnet

import (
	"strings"
	"testing"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/health"
)

// startHealthServer runs a server over a (9,3,1) system with a health
// monitor attached and the rebuild scheduler enabled.
func startHealthServer(t *testing.T, rebuildRate float64) (*Server, string) {
	t.Helper()
	sys, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewHealthMonitor(rebuildRate, health.Config{}); err != nil {
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

func TestHealthVerbsWithoutMonitor(t *testing.T) {
	_, addr := startServer(t) // plain server, no monitor
	c := dialText(t, addr)
	for _, line := range []string{"FAIL 0", "RECOVER 0", "HEALTH"} {
		if got := c.do(line); got != "ERR no health monitor" {
			t.Errorf("%s without monitor = %q, want ERR no health monitor", line, got)
		}
	}
	bc := dialBinT(t, addr)
	if _, _, err := bc.Fail(0); err == nil || !strings.Contains(err.Error(), "no health monitor") {
		t.Errorf("binary Fail without monitor: err = %v, want 'no health monitor'", err)
	}
	if _, err := bc.Health(); err == nil || !strings.Contains(err.Error(), "no health monitor") {
		t.Errorf("binary Health without monitor: err = %v, want 'no health monitor'", err)
	}
}

// TestDegradedServerEndToEnd drives the acceptance flow over the wire:
// FAIL drops admission to S', reads avoid the failed device, RECOVER
// schedules a resilver that completes under the rate cap, and the full
// guarantee S comes back.
func TestDegradedServerEndToEnd(t *testing.T) {
	_, addr := startHealthServer(t, 2000)
	c := dialBinT(t, addr)

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Devices != 9 || h.Alive != 9 || h.EffectiveS != 5 || h.FullS != 5 {
		t.Fatalf("healthy HEALTH = %+v, want 9 devices alive, S=5", h)
	}
	if len(h.States) != 9 {
		t.Fatalf("HEALTH reported %d DEV lines, want 9", len(h.States))
	}
	for _, d := range h.States {
		if d.State != "healthy" {
			t.Errorf("device %d state %q at startup", d.Device, d.State)
		}
	}

	state, s, err := c.Fail(0)
	if err != nil {
		t.Fatal(err)
	}
	if state != "failed" || s != 3 {
		t.Fatalf("FAIL 0 = %q S'=%d, want failed S'=3", state, s)
	}
	if _, _, err := c.Fail(0); err == nil {
		t.Error("second FAIL 0 succeeded, want error")
	}

	// Degraded reads must keep working and never land on the failed device.
	for b := int64(0); b < 36; b++ {
		res, err := c.Read(b)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rejected && res.Device == 0 {
			t.Fatalf("block %d served by failed device 0", b)
		}
	}

	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"flashqos_devices_alive 8",
		"flashqos_devices_unavailable 1",
		"flashqos_admission_limit_effective 3",
		"flashqos_admission_limit 5",
		"flashqos_health_transitions_total",
		"flashqos_rebuild_",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("METRICS missing %q", want)
		}
	}

	state, s, err = c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if state != "rebuilding" {
		t.Fatalf("RECOVER 0 state %q, want rebuilding (rebuild enabled)", state)
	}
	if s != 3 {
		t.Errorf("S' during resilver = %d, want 3 (device not serving yet)", s)
	}

	// The Serve health pump drains the resilver; the device must come back
	// and the full guarantee with it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err = c.Health()
		if err != nil {
			t.Fatal(err)
		}
		if h.EffectiveS == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resilver never completed: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.Alive != 9 || h.States[0].State != "healthy" {
		t.Errorf("after resilver HEALTH = %+v, want device 0 healthy", h)
	}
	// The resilver walked all 12 buckets with a replica on device 0. (The
	// reprotect pass started by FAIL is cancelled when RECOVER arrives
	// before it drains, so only the resilver's copies are guaranteed.)
	if h.RebuildDone < 12 {
		t.Errorf("rebuild_done = %d, want >= 12 (the resilver)", h.RebuildDone)
	}
	if h.RebuildPending != 0 {
		t.Errorf("rebuild_pending = %d after completion, want 0", h.RebuildPending)
	}

	if _, _, err := c.Recover(0); err == nil {
		t.Error("RECOVER of healthy device succeeded, want error")
	}
}

// TestMaxUnavailableGuardOverWire: the third FAIL must be refused — it
// would take a bucket's last replica out of service.
func TestMaxUnavailableGuardOverWire(t *testing.T) {
	_, addr := startHealthServer(t, 0)
	c := dialBinT(t, addr)
	if _, s, err := c.Fail(0); err != nil || s != 3 {
		t.Fatalf("FAIL 0: s=%d err=%v", s, err)
	}
	if _, s, err := c.Fail(1); err != nil || s != 1 {
		t.Fatalf("FAIL 1: s=%d err=%v", s, err)
	}
	if _, _, err := c.Fail(2); err == nil {
		t.Fatal("FAIL 2 succeeded past the c-1 guard")
	}
	// No rebuilder at rate 0: RECOVER promotes straight to healthy.
	if state, s, err := c.Recover(0); err != nil || state != "healthy" || s != 3 {
		t.Fatalf("RECOVER 0 = %q s=%d err=%v, want healthy s=3", state, s, err)
	}
	if state, s, err := c.Recover(1); err != nil || state != "healthy" || s != 5 {
		t.Fatalf("RECOVER 1 = %q s=%d err=%v, want healthy s=5", state, s, err)
	}
}
