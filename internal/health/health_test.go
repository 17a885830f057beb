package health

import (
	"sync"
	"testing"
)

func mustMonitor(t testing.TB, cfg Config) *Monitor {
	t.Helper()
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Devices: 0},
		{Devices: 65},
		{Devices: 9, SuspectAfter: 5, FailAfter: 2},
		{Devices: 9, MaxUnavailable: 9},
	} {
		if _, err := NewMonitor(cfg); err == nil {
			t.Errorf("NewMonitor(%+v) accepted invalid config", cfg)
		}
	}
}

func TestErrorStreakEscalation(t *testing.T) {
	m := mustMonitor(t, Config{Devices: 9, SuspectAfter: 3, FailAfter: 6, MaxUnavailable: 2})
	if got := m.State(4); got != Healthy {
		t.Fatalf("initial state = %v", got)
	}
	for i := 0; i < 2; i++ {
		m.ReportError(4)
	}
	if got := m.State(4); got != Healthy {
		t.Fatalf("after 2 errors state = %v, want healthy", got)
	}
	m.ReportError(4)
	if got := m.State(4); got != Suspect {
		t.Fatalf("after 3 errors state = %v, want suspect", got)
	}
	if !m.Mask().Has(4) {
		t.Fatal("suspect device must stay in the mask")
	}
	for i := 0; i < 3; i++ {
		m.ReportError(4)
	}
	if got := m.State(4); got != Failed {
		t.Fatalf("after 6 errors state = %v, want failed", got)
	}
	mask := m.Mask()
	if mask.Has(4) || mask.Alive != 8 || mask.Unavailable() != 1 {
		t.Fatalf("failed device still visible: %+v", mask)
	}
}

func TestSuccessStreakResetsErrors(t *testing.T) {
	m := mustMonitor(t, Config{Devices: 9, SuspectAfter: 3, FailAfter: 6})
	m.ReportError(1)
	m.ReportError(1)
	m.ReportSuccess(1, 0.1)
	m.ReportError(1)
	m.ReportError(1)
	if got := m.State(1); got != Healthy {
		t.Fatalf("interleaved errors escalated: %v", got)
	}
}

func TestLatencyDetectorSuspectAndRecover(t *testing.T) {
	m := mustMonitor(t, Config{Devices: 9, BaselineMS: 0.1})
	// Sustained 10x latency spikes must trip the EWMA detector.
	spikes := 0
	for ; spikes < 10 && m.State(2) == Healthy; spikes++ {
		m.ReportSuccess(2, 1.0)
	}
	if got := m.State(2); got != Suspect {
		t.Fatalf("latency spike did not suspect: %v (ewma %g)", got, m.EWMA(2))
	}
	// Back to baseline: needs both the EWMA to decay below suspectFactor ×
	// BaselineMS and a streak of recoverAfter successes, spikes included.
	calm := 0
	for ; calm < 40 && m.State(2) == Suspect; calm++ {
		m.ReportSuccess(2, 0.1)
	}
	if got := m.State(2); got != Healthy {
		t.Fatalf("device did not recover from suspect: %v (ewma %g)", got, m.EWMA(2))
	}
	if spikes+calm != recoverAfter {
		t.Fatalf("recovered after %d successes, want the streak of %d", spikes+calm, recoverAfter)
	}
}

func TestDetectorRespectsMaxUnavailable(t *testing.T) {
	m := mustMonitor(t, Config{Devices: 9, SuspectAfter: 1, FailAfter: 2, MaxUnavailable: 2})
	if err := m.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Fail(1); err != nil {
		t.Fatal(err)
	}
	// A third auto-failure would strand buckets: the detector must hold the
	// device at Suspect.
	for i := 0; i < 20; i++ {
		m.ReportError(2)
	}
	if got := m.State(2); got != Suspect {
		t.Fatalf("detector crossed MaxUnavailable: device 2 = %v", got)
	}
	// Manual Fail must refuse too.
	if err := m.Fail(2); err == nil {
		t.Fatal("Fail crossed MaxUnavailable")
	}
}

func TestManualFailRecoverWithoutRebuild(t *testing.T) {
	m := mustMonitor(t, Config{Devices: 9, MaxUnavailable: 2})
	if err := m.Fail(7); err != nil {
		t.Fatal(err)
	}
	if err := m.Fail(7); err == nil {
		t.Fatal("double Fail accepted")
	}
	if got := m.State(7); got != Failed {
		t.Fatalf("state = %v", got)
	}
	// Without a rebuilder, Recover promotes straight to Healthy.
	if err := m.Recover(7); err != nil {
		t.Fatal(err)
	}
	if got := m.State(7); got != Healthy {
		t.Fatalf("state after recover = %v", got)
	}
	if !m.Mask().Full() {
		t.Fatal("mask not restored")
	}
	if err := m.Recover(7); err == nil {
		t.Fatal("Recover of healthy device accepted")
	}
}

func TestRecoverClearsSuspect(t *testing.T) {
	m := mustMonitor(t, Config{Devices: 9, SuspectAfter: 1})
	m.ReportError(3)
	if got := m.State(3); got != Suspect {
		t.Fatalf("state = %v", got)
	}
	if err := m.Recover(3); err != nil {
		t.Fatal(err)
	}
	if got := m.State(3); got != Healthy {
		t.Fatalf("state = %v", got)
	}
}

// buckets931 mimics the (9,3,1) design: 12 base blocks × 3 rotations; each
// device appears in 12 buckets. The exact shape is irrelevant to the
// rebuilder — only the per-device bucket count matters.
func bucketsOf12(dev int) []int {
	out := make([]int, 12)
	for i := range out {
		out[i] = dev*12 + i
	}
	return out
}

func TestRebuildFlowAndRateCap(t *testing.T) {
	now := 0.0
	var copies []RebuildKind
	m := mustMonitor(t, Config{
		Devices: 9, MaxUnavailable: 2,
		NowMS: func() float64 { return now },
		Rebuild: RebuildConfig{
			RatePerSec: 1000, // 1 bucket per ms
			BucketsOf:  bucketsOf12,
			Copy:       func(dev, bucket int, kind RebuildKind) { copies = append(copies, kind) },
		},
	})
	if err := m.Fail(5); err != nil {
		t.Fatal(err)
	}
	if pending, _ := m.RebuildProgress(); pending != 12 {
		t.Fatalf("re-protect queue = %d, want 12", pending)
	}
	// Rate cap: at t=0 only the burst is available.
	if n := m.Step(); n != rebuildBurst {
		t.Fatalf("burst step did %d copies, want %d", n, rebuildBurst)
	}
	if n := m.Step(); n != 0 {
		t.Fatalf("no-time step did %d copies, want 0", n)
	}
	// Fine-grained ticking realizes exactly the rate: 1 copy per ms.
	for i := 0; i < 3; i++ {
		now++
		if n := m.Step(); n != 1 {
			t.Fatalf("1ms step did %d copies, want 1", n)
		}
	}
	// A long idle stretch refills at most the burst — the invariant that
	// rebuild I/O can never dump more than rebuildBurst copies into one step.
	now = 1e6
	if n := m.Step(); n != rebuildBurst {
		t.Fatalf("post-idle step did %d copies, want burst=%d", n, rebuildBurst)
	}
	for i := 0; i < 10; i++ {
		now += 5
		m.Step()
	}
	if pending, done := m.RebuildProgress(); pending != 0 || done != 12 {
		t.Fatalf("re-protect incomplete: pending=%d done=%d", pending, done)
	}
	for _, k := range copies {
		if k != Reprotect {
			t.Fatalf("unexpected copy kind %v during failed phase", k)
		}
	}
	if got := m.State(5); got != Failed {
		t.Fatalf("re-protect changed device state: %v", got)
	}

	// RECOVER starts the resilver; the device rejoins the mask only when
	// the copy-back queue drains.
	copies = copies[:0]
	if err := m.Recover(5); err != nil {
		t.Fatal(err)
	}
	if got := m.State(5); got != Rebuilding {
		t.Fatalf("state after recover = %v", got)
	}
	if m.Mask().Has(5) {
		t.Fatal("rebuilding device must stay out of the mask")
	}
	for i := 0; i < 20 && m.State(5) == Rebuilding; i++ {
		now += 5
		m.Step()
	}
	if got := m.State(5); got != Healthy {
		t.Fatalf("resilver did not promote: %v", got)
	}
	if !m.Mask().Full() {
		t.Fatal("mask not restored after resilver")
	}
	for _, k := range copies {
		if k != Resilver {
			t.Fatalf("unexpected copy kind %v during rebuilding phase", k)
		}
	}
}

// TestRebuildCopyRunsUnlocked pins the Step contract: the copy callback
// runs with the transition lock released, so it may feed the monitor —
// progress queries, detector reports — without self-deadlocking. The real
// data path's rebuild callback does exactly that (its store puts report
// health outcomes), and used to stall every transition for the duration
// of a bucket copy when Step held the lock across it.
func TestRebuildCopyRunsUnlocked(t *testing.T) {
	now := 0.0
	var m *Monitor
	m = mustMonitor(t, Config{
		Devices: 4, MaxUnavailable: 2,
		NowMS: func() float64 { return now },
		Rebuild: RebuildConfig{
			RatePerSec: 1000,
			BucketsOf:  func(dev int) []int { return []int{0, 1} },
			Copy: func(dev, bucket int, kind RebuildKind) {
				// Both take the transition lock; with Step still holding it
				// this deadlocks.
				m.RebuildProgress()
				m.ReportSuccess(0, 1.0)
			},
		},
	})
	if err := m.Fail(3); err != nil {
		t.Fatal(err)
	}
	// One copy per step and per ms: rebuildBurst is 1 and the rate 1/ms.
	for i := 0; i < 2; i++ {
		if n := m.Step(); n != 1 {
			t.Fatalf("step %d performed %d copies, want 1", i, n)
		}
		now++
	}
	// The resilver path promotes only after the (unlocked) copies ran.
	if err := m.Recover(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := m.State(3); got != Rebuilding {
			t.Fatalf("state before resilver copy %d = %v, want rebuilding", i, got)
		}
		if n := m.Step(); n != 1 {
			t.Fatalf("resilver step %d performed %d copies, want 1", i, n)
		}
		now++
	}
	if got := m.State(3); got != Healthy {
		t.Fatalf("state after resilver = %v, want healthy", got)
	}
}

func TestFailDuringResilverCancelsWork(t *testing.T) {
	now := 0.0
	m := mustMonitor(t, Config{
		Devices: 9, MaxUnavailable: 2,
		NowMS:   func() float64 { return now },
		Rebuild: RebuildConfig{RatePerSec: 100, BucketsOf: bucketsOf12},
	})
	if err := m.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Recover(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Fail(3); err != nil { // dies again mid-resilver
		t.Fatal(err)
	}
	// The queue holds only the fresh re-protect pass, not stale resilver jobs.
	if pending, _ := m.RebuildProgress(); pending != 12 {
		t.Fatalf("pending = %d, want 12", pending)
	}
	if got := m.State(3); got != Failed {
		t.Fatalf("state = %v", got)
	}
}

func TestMaskChangesAndTransitions(t *testing.T) {
	var seq []State
	m := mustMonitor(t, Config{
		Devices: 9, MaxUnavailable: 2,
		OnTransition: func(dev int, from, to State) { seq = append(seq, to) },
	})
	// The mask is a new snapshot exactly when availability changes: fail
	// and recover publish one each, Suspect keeps the old one.
	full := m.Mask()
	m.ReportError(0)
	m.ReportError(0)
	m.ReportError(0) // → Suspect (no mask change)
	if m.Mask() != full {
		t.Fatal("suspect published a new mask")
	}
	if err := m.Fail(0); err != nil {
		t.Fatal(err)
	}
	failed := m.Mask()
	if failed == full || failed.Has(0) || failed.Alive != 8 {
		t.Fatalf("fail did not publish a mask without device 0: %+v", failed)
	}
	if err := m.Recover(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Mask(); got == failed || !got.Full() {
		t.Fatalf("recover did not publish a full mask: %+v", got)
	}
	want := []State{Suspect, Failed, Healthy}
	if len(seq) != len(want) {
		t.Fatalf("transitions = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", seq, want)
		}
	}
	if m.Transitions() != 3 {
		t.Fatalf("Transitions() = %d, want 3", m.Transitions())
	}
}

func TestMaskReadZeroAllocs(t *testing.T) {
	m := mustMonitor(t, Config{Devices: 9})
	if err := m.Fail(2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		mask := m.Mask()
		if mask.Has(2) || !mask.Has(3) {
			t.Fatal("mask wrong")
		}
	})
	if allocs != 0 {
		t.Fatalf("Mask read allocates %v per op, want 0", allocs)
	}
}

// TestConcurrentReportsRace hammers the detectors from many goroutines
// while an admin goroutine fails and recovers devices; run with -race.
func TestConcurrentReportsRace(t *testing.T) {
	m := mustMonitor(t, Config{
		Devices: 9, SuspectAfter: 2, FailAfter: 4, MaxUnavailable: 2,
		BaselineMS: 0.1,
		Rebuild:    RebuildConfig{RatePerSec: 1e6, BucketsOf: bucketsOf12},
	})
	stop := make(chan struct{})
	var reporters sync.WaitGroup
	for g := 0; g < 8; g++ {
		reporters.Add(1)
		go func(g int) {
			defer reporters.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := (g + i) % 9
				if i%7 == 0 {
					m.ReportError(d)
				} else {
					m.ReportSuccess(d, 0.1)
				}
				_ = m.Mask().Alive
			}
		}(g)
	}
	var admins sync.WaitGroup
	admins.Add(2)
	go func() {
		defer admins.Done()
		for i := 0; i < 200; i++ {
			if err := m.Fail(i % 9); err == nil {
				m.Step()
				m.Recover(i % 9)
			}
			m.Step()
		}
	}()
	go func() {
		defer admins.Done()
		for i := 0; i < 500; i++ {
			m.Step()
			m.RebuildProgress()
		}
	}()
	admins.Wait()
	close(stop)
	reporters.Wait()

	// Drain outstanding resilvers so the array converges.
	for i := 0; i < 1000; i++ {
		if p, _ := m.RebuildProgress(); p == 0 {
			break
		}
		m.Step()
	}
	mask := m.Mask()
	if mask.N != 9 || mask.Alive > 9 || mask.Unavailable() > 2 {
		t.Fatalf("mask out of bounds: %+v", mask)
	}
	// The snapshot must agree with the per-device states.
	for d := 0; d < 9; d++ {
		if m.State(d).available() != mask.Has(d) {
			t.Fatalf("mask bit %d disagrees with state %v", d, m.State(d))
		}
	}
}
