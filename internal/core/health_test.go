package core

import (
	"sync"
	"testing"

	"flashqos/internal/design"
	"flashqos/internal/health"
)

func newHealthSystem(t testing.TB, cfg Config) (*System, *health.Monitor) {
	t.Helper()
	if cfg.Design == nil {
		cfg.Design = design.Paper931()
	}
	if cfg.M == 0 {
		cfg.M = 1
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := sys.NewHealthMonitor(0, health.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, mon
}

// findBlock returns a data block whose replica set satisfies pred.
func findBlock(t testing.TB, sys *System, pred func(replicas []int) bool) int64 {
	t.Helper()
	for b := int64(0); b < int64(sys.Allocator().Rows()); b++ {
		if pred(sys.Replicas(b)) {
			return b
		}
	}
	t.Fatal("no block matches predicate")
	return -1
}

func contains(devs []int, d int) bool {
	for _, x := range devs {
		if x == d {
			return true
		}
	}
	return false
}

func intersects(a, b []int) bool {
	for _, d := range a {
		if contains(b, d) {
			return true
		}
	}
	return false
}

// TestDegradedAdmissionS: failing devices must drop the admission limit to
// S'(M) = (c'-1)M² + c'M with c' = c - f, and recovery must restore S. For
// the (9,3,1) design with M = 1 that is 5 → 3 → 1 → 5.
func TestDegradedAdmissionS(t *testing.T) {
	sys, mon := newHealthSystem(t, Config{})

	// admittedNow submits n distinct blocks into a fresh window, long after
	// every earlier request finished, and counts how many were served
	// without delay — exactly the per-window guarantee under the Delay
	// policy when all devices start idle.
	at := 0.0
	admittedNow := func(n int) (now int, onFailed bool) {
		at += 10
		for b := int64(0); b < int64(n); b++ {
			out := sys.Submit(at, b)
			if out.Rejected {
				continue
			}
			if !out.Delayed {
				now++
				if mon.State(out.Device) == health.Failed {
					onFailed = true
				}
			}
		}
		return now, onFailed
	}

	if got := sys.EffectiveS(); got != 5 {
		t.Fatalf("healthy EffectiveS = %d, want 5", got)
	}
	if now, _ := admittedNow(9); now != 5 {
		t.Fatalf("healthy array served %d requests in window 0, want 5", now)
	}

	if err := mon.Fail(0); err != nil {
		t.Fatal(err)
	}
	if got := sys.EffectiveS(); got != 3 {
		t.Fatalf("1 failure: EffectiveS = %d, want 3", got)
	}
	now, onFailed := admittedNow(9)
	if now != 3 {
		t.Errorf("1 failure: served %d requests in window 0, want 3", now)
	}
	if onFailed {
		t.Error("request scheduled on a failed device")
	}

	if err := mon.Fail(1); err != nil {
		t.Fatal(err)
	}
	if got := sys.EffectiveS(); got != 1 {
		t.Fatalf("2 failures: EffectiveS = %d, want 1", got)
	}
	if now, _ := admittedNow(9); now != 1 {
		t.Errorf("2 failures: served %d requests in window 0, want 1", now)
	}

	// The guard refuses the c-th failure — buckets would lose their last
	// replica.
	if err := mon.Fail(2); err == nil {
		t.Error("third Fail succeeded, want MaxUnavailable error")
	}

	// No rebuilder configured: Recover goes straight back to Healthy.
	if err := mon.Recover(0); err != nil {
		t.Fatal(err)
	}
	if err := mon.Recover(1); err != nil {
		t.Fatal(err)
	}
	if got := sys.EffectiveS(); got != 5 {
		t.Fatalf("after recovery EffectiveS = %d, want 5", got)
	}
	if now, _ := admittedNow(9); now != 5 {
		t.Errorf("recovered array served %d requests in window 0, want 5", now)
	}
}

// TestDegradedWriteConsumesAliveSlots: a degraded write updates only the
// surviving replicas and charges only that many admission slots.
func TestDegradedWriteConsumesAliveSlots(t *testing.T) {
	sys, mon := newHealthSystem(t, Config{})
	if err := mon.Fail(0); err != nil {
		t.Fatal(err)
	}
	// S' = 3. A write to a block with one replica on the failed device has
	// 2 live copies, so 1 read slot must remain in window 0.
	wb := findBlock(t, sys, func(r []int) bool { return contains(r, 0) })
	wout := sys.SubmitWrite(0, wb)
	if wout.Rejected || wout.Delayed {
		t.Fatalf("degraded write not served immediately: %+v", wout)
	}
	if wout.Device == 0 {
		t.Error("write landed on the failed device")
	}
	wset := sys.Replicas(wb)
	rb := findBlock(t, sys, func(r []int) bool { return !intersects(r, wset) })
	if out := sys.Submit(0, rb); out.Delayed || out.Rejected {
		t.Errorf("write consumed more than its 2 live slots: third slot unusable (%+v)", out)
	}
	rset := sys.Replicas(rb)
	rb2 := findBlock(t, sys, func(r []int) bool { return !intersects(r, wset) && !intersects(r, rset) })
	if out := sys.Submit(0, rb2); !out.Delayed {
		t.Errorf("window over S'=3 still served immediately: %+v", out)
	}
}

// TestUnavailableOutcome: when every replica of a block is out of service
// (possible only past the design's fault-tolerance limit, so the monitor is
// built with a raised MaxUnavailable), submission reports Unavailable
// rather than wedging or panicking.
func TestUnavailableOutcome(t *testing.T) {
	sys, err := New(Config{Design: design.Paper931(), M: 1})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := health.NewMonitor(health.Config{Devices: 9, MaxUnavailable: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachHealth(mon); err != nil {
		t.Fatal(err)
	}
	dead := sys.Replicas(0)
	for _, d := range dead {
		if err := mon.Fail(d); err != nil {
			t.Fatal(err)
		}
	}
	if out := sys.Submit(0, 0); !out.Rejected || !out.Unavailable {
		t.Errorf("read of fully-dead block: %+v, want Rejected+Unavailable", out)
	}
	if out := sys.SubmitWrite(0, 0); !out.Rejected || !out.Unavailable {
		t.Errorf("write of fully-dead block: %+v, want Rejected+Unavailable", out)
	}
	live := findBlock(t, sys, func(r []int) bool {
		for _, d := range r {
			if !contains(dead, d) {
				return true
			}
		}
		return false
	})
	outs := sys.SubmitBatch(0, []int64{0, live}, nil)
	if !outs[0].Unavailable {
		t.Errorf("batch entry for dead block: %+v, want Unavailable", outs[0])
	}
	if outs[1].Rejected {
		t.Errorf("batch entry for live block rejected: %+v", outs[1])
	}
	if contains(dead, outs[1].Device) {
		t.Errorf("batch scheduled block on dead device %d", outs[1].Device)
	}
}

// TestConcurrentMaskFlipRace hammers Submit from many
// goroutines while an admin goroutine flips devices in and out of service.
// Run under -race. Invariants: no window ever exceeds S, no request is
// reported Unavailable (at most c-1 devices fail, so every block keeps a
// live replica), and every admitted request lands on one of its replicas.
func TestConcurrentMaskFlipRace(t *testing.T) {
	cs, mon := newHealthSystem(t, Config{})

	const (
		submitters = 8
		perG       = 300
		flips      = 60
	)
	var wg sync.WaitGroup
	errs := make(chan string, submitters*perG)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				block := int64((g*perG + i) % 36)
				out := cs.Submit(float64(i)*0.02, block)
				switch {
				case out.Unavailable:
					errs <- "Unavailable outcome with at most c-1 failures"
				case !out.Rejected && !contains(cs.Replicas(block), out.Device):
					errs <- "admitted request served off-replica"
				}
			}
		}(g)
	}
	var admin sync.WaitGroup
	admin.Add(1)
	go func() {
		defer admin.Done()
		for k := 0; k < flips; k++ {
			d := k % 2
			mon.Fail(d)    // error (already failed / guard) is fine
			mon.Recover(d) // error (already healthy) is fine
		}
	}()
	wg.Wait()
	admin.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if max := cs.MaxWindowCount(); max > cs.S() {
		t.Errorf("window count reached %d, above S=%d", max, cs.S())
	}
}

// degradedSteadyCfg shapes a system so that an unbounded run of submissions
// stays inside one admission window on the guaranteed path: a huge interval
// and a large M keep S' above the iteration count, and arrivals spaced
// wider than the service time keep a replica idle at every arrival.
func degradedSteadyCfg() Config {
	return Config{Design: design.Paper931(), M: 50, IntervalMS: 1000}
}

// TestSubmitDegradedAllocs pins the degraded submit path at zero
// allocations in steady state: the mask read is one atomic load and the
// per-replica availability checks are inline bit tests.
func TestSubmitDegradedAllocs(t *testing.T) {
	sys, mon := newHealthSystem(t, degradedSteadyCfg())
	if err := mon.Fail(4); err != nil {
		t.Fatal(err)
	}
	at, i := 0.0, 0
	submit := func() {
		sys.Submit(at, int64(i%36))
		at += 0.2
		i++
	}
	for k := 0; k < 10; k++ {
		submit() // warm up: window counter entry, map growth
	}
	if allocs := testing.AllocsPerRun(300, submit); allocs != 0 {
		t.Errorf("degraded System.Submit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentSubmitDegradedAllocs pins the degraded burst entry point
// — the qosnet server's hot path — at zero allocations in steady state
// with a reused scratch.
func TestConcurrentSubmitDegradedAllocs(t *testing.T) {
	sys, mon := newHealthSystem(t, degradedSteadyCfg())
	if err := mon.Fail(4); err != nil {
		t.Fatal(err)
	}
	at, i := 0.0, 0
	var sc BurstScratch
	reqs := make([]BurstReq, 1)
	submit := func() {
		reqs[0].Block = int64(i % 36)
		sys.SubmitBurst(at, reqs, &sc)
		at += 0.2
		i++
	}
	for k := 0; k < 10; k++ {
		submit()
	}
	if allocs := testing.AllocsPerRun(300, submit); allocs != 0 {
		t.Errorf("degraded SubmitBurst allocates %.1f objects/op, want 0", allocs)
	}
}
