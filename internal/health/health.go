// Package health is the live fault-tolerance subsystem: it watches every
// flash module for errors and latency anomalies, runs a per-device state
// machine (Healthy → Suspect → Failed → Rebuilding → Healthy), and
// publishes the set of devices currently safe to read from as an
// atomically-swapped mask snapshot.
//
// The paper's replication guarantee (§II-B1) is exactly a fault-time
// property: an (N, c, 1) design keeps every bucket retrievable through any
// c-1 module losses. This package is the runtime half of that claim — it
// decides *when* a module has been lost, tells admission control so the
// guarantee degrades predictably (core recomputes S' for the surviving
// replica count), and drives a token-bucket-limited background rebuild so
// repair I/O cannot starve foreground QoS traffic.
//
// # Concurrency model
//
// The retrieval hot path must stay lock-free and zero-alloc, so readers
// never take a lock: Mask() is a single atomic pointer load of an immutable
// snapshot. Detector inputs (ReportSuccess/ReportError) touch only
// per-device atomics — an EWMA CAS and two streak counters — and only when
// a detector threshold actually trips do they fall into the serialized
// transition path. State transitions, mask rebuilds, and the rebuild queue
// are serialized by one mutex; the new mask is published with an atomic
// pointer swap, so a reader sees either the old or the new snapshot, never
// a partial one.
package health

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// State is a device's position in the failure/repair lifecycle.
type State int32

const (
	// Healthy devices serve reads and writes normally.
	Healthy State = iota
	// Suspect devices have tripped a detector (error streak or EWMA
	// latency) but still serve traffic; more errors escalate to Failed,
	// a success streak de-escalates to Healthy.
	Suspect
	// Failed devices are removed from the retrieval mask; admission
	// degrades to S' and the rebuilder re-replicates their buckets onto
	// survivors.
	Failed
	// Rebuilding devices have been replaced (Recover) and are being
	// resilvered by the rebuilder; they rejoin the mask when the copy-back
	// queue drains.
	Rebuilding
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	case Rebuilding:
		return "rebuilding"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// available reports whether a device in this state may serve reads.
func (s State) available() bool { return s == Healthy || s == Suspect }

// Mask is an immutable snapshot of which devices may serve reads. Bit d of
// Bits is set iff device d is Healthy or Suspect. Snapshots are shared by
// pointer and must never be mutated.
type Mask struct {
	Bits  uint64
	Alive int // population count of Bits
	N     int // total devices
}

// Has reports whether device d may serve reads.
func (m *Mask) Has(d int) bool { return m.Bits&(1<<uint(d)) != 0 }

// Unavailable returns the number of devices out of the mask
// (Failed + Rebuilding).
func (m *Mask) Unavailable() int { return m.N - m.Alive }

// Full reports whether every device is available.
func (m *Mask) Full() bool { return m.Alive == m.N }

// The detector's fixed thresholds.
const (
	// recoverAfter is the consecutive-success streak that moves a Suspect
	// device back to Healthy (provided its EWMA is below the latency
	// threshold).
	recoverAfter = 16
	// suspectFactor trips the latency detector when the EWMA exceeds
	// suspectFactor × BaselineMS.
	suspectFactor = 4
	// ewmaAlpha is the smoothing factor of the latency EWMA.
	ewmaAlpha = 0.25
)

// Config configures a Monitor. The zero value of every optional field
// selects the documented default.
type Config struct {
	// Devices is the number of flash modules (required, 1..64 — the mask
	// is a single machine word so hot-path reads stay one atomic load).
	Devices int

	// SuspectAfter is the consecutive-error streak that moves a Healthy
	// device to Suspect. Default 3.
	SuspectAfter int
	// FailAfter is the consecutive-error streak that moves a Suspect
	// device to Failed. Must be >= SuspectAfter. Default 10.
	FailAfter int

	// BaselineMS is the expected per-operation latency; 0 disables the
	// latency detector (error streaks still work).
	BaselineMS float64

	// MaxUnavailable caps how many devices may leave the mask at once —
	// both the detector and manual Fail refuse to cross it, because c-1 is
	// where the design's retrievability guarantee ends and data loss
	// begins. 0 means Devices-1 (only availability of the mask itself is
	// protected). Core attaches c-1 here.
	MaxUnavailable int

	// Rebuild configures the background re-replication scheduler; the
	// zero value disables it (Recover promotes straight to Healthy).
	Rebuild RebuildConfig

	// OnTransition, if set, is called (under the transition lock) for
	// every state transition.
	OnTransition func(dev int, from, to State)

	// NowMS supplies the rebuild clock in milliseconds; nil uses the wall
	// clock. Tests inject a manual clock to verify the rate cap exactly.
	NowMS func() float64
}

func (c *Config) applyDefaults() {
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 3
	}
	if c.FailAfter == 0 {
		c.FailAfter = 10
	}
	if c.MaxUnavailable == 0 {
		c.MaxUnavailable = c.Devices - 1
	}
	if c.NowMS == nil {
		start := time.Now()
		c.NowMS = func() float64 {
			return float64(time.Since(start)) / float64(time.Millisecond)
		}
	}
}

// device is the per-module detector state. All fields are atomics so the
// report hot path never locks.
type device struct {
	state     atomic.Int32
	consecErr atomic.Int32
	consecOK  atomic.Int32
	ewma      atomic.Uint64 // float64 bits; 0 = no samples yet
}

// Monitor runs the per-device state machines and publishes the mask.
type Monitor struct {
	cfg  Config
	devs []device
	mask atomic.Pointer[Mask]

	mu  sync.Mutex // serializes transitions, mask rebuilds, rebuild queue
	reb *rebuilder // nil when rebuild is disabled

	transitions atomic.Int64
}

// NewMonitor creates a monitor with every device Healthy.
func NewMonitor(cfg Config) (*Monitor, error) {
	if cfg.Devices < 1 || cfg.Devices > 64 {
		return nil, fmt.Errorf("health: devices must be in [1,64], got %d", cfg.Devices)
	}
	cfg.applyDefaults()
	if cfg.FailAfter < cfg.SuspectAfter {
		return nil, fmt.Errorf("health: FailAfter %d < SuspectAfter %d", cfg.FailAfter, cfg.SuspectAfter)
	}
	if cfg.MaxUnavailable < 1 || cfg.MaxUnavailable >= cfg.Devices {
		return nil, fmt.Errorf("health: MaxUnavailable %d out of range [1,%d)", cfg.MaxUnavailable, cfg.Devices)
	}
	m := &Monitor{cfg: cfg, devs: make([]device, cfg.Devices)}
	if cfg.Rebuild.RatePerSec > 0 {
		m.reb = newRebuilder(cfg.Rebuild)
	}
	m.mask.Store(buildMask(m.devs))
	return m, nil
}

// buildMask computes a fresh snapshot from the device states.
func buildMask(devs []device) *Mask {
	m := &Mask{N: len(devs)}
	for d := range devs {
		if State(devs[d].state.Load()).available() {
			m.Bits |= 1 << uint(d)
			m.Alive++
		}
	}
	return m
}

// Mask returns the current availability snapshot. One atomic load; safe
// and allocation-free on any goroutine.
func (m *Monitor) Mask() *Mask { return m.mask.Load() }

// Devices returns the number of monitored devices.
func (m *Monitor) Devices() int { return m.cfg.Devices }

// State returns device d's current state.
func (m *Monitor) State(d int) State { return State(m.devs[d].state.Load()) }

// EWMA returns device d's smoothed latency estimate (0 before any sample).
func (m *Monitor) EWMA(d int) float64 {
	return math.Float64frombits(m.devs[d].ewma.Load())
}

// Transitions returns the total number of state transitions so far.
func (m *Monitor) Transitions() int64 { return m.transitions.Load() }

// ReportSuccess feeds one successful operation on device d with its
// observed latency. Lock-free except when a detector threshold trips.
func (m *Monitor) ReportSuccess(d int, latencyMS float64) {
	dev := &m.devs[d]
	dev.consecErr.Store(0)
	oks := dev.consecOK.Add(1)
	ew := m.updateEWMA(dev, latencyMS)

	switch State(dev.state.Load()) {
	case Healthy:
		if m.latencySuspect(ew) {
			m.transition(d, Healthy, Suspect)
		}
	case Suspect:
		if int(oks) >= recoverAfter && !m.latencySuspect(ew) {
			m.transition(d, Suspect, Healthy)
		}
	}
}

// ReportError feeds one failed operation on device d. Lock-free except
// when a detector threshold trips.
func (m *Monitor) ReportError(d int) {
	dev := &m.devs[d]
	dev.consecOK.Store(0)
	errs := int(dev.consecErr.Add(1))

	switch State(dev.state.Load()) {
	case Healthy:
		if errs >= m.cfg.SuspectAfter {
			m.transition(d, Healthy, Suspect)
		}
	case Suspect:
		if errs >= m.cfg.FailAfter {
			m.transition(d, Suspect, Failed)
		}
	}
}

// updateEWMA folds one latency sample into the device EWMA with a CAS loop
// and returns the new value. The first sample seeds the average.
func (m *Monitor) updateEWMA(dev *device, x float64) float64 {
	for {
		old := dev.ewma.Load()
		prev := math.Float64frombits(old)
		next := x
		if old != 0 {
			next = ewmaAlpha*x + (1-ewmaAlpha)*prev
		}
		if dev.ewma.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

func (m *Monitor) latencySuspect(ewma float64) bool {
	return m.cfg.BaselineMS > 0 && ewma > suspectFactor*m.cfg.BaselineMS
}

// Fail force-transitions device d to Failed (the FAIL admin command, or an
// external fault notification). It refuses to exceed MaxUnavailable — past
// c-1 losses the design can no longer guarantee every bucket a surviving
// replica.
func (m *Monitor) Fail(d int) error {
	if d < 0 || d >= m.cfg.Devices {
		return fmt.Errorf("health: device %d out of range [0,%d)", d, m.cfg.Devices)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	from := State(m.devs[d].state.Load())
	if from == Failed {
		return fmt.Errorf("health: device %d already failed", d)
	}
	if from.available() && m.mask.Load().Unavailable()+1 > m.cfg.MaxUnavailable {
		return fmt.Errorf("health: failing device %d would exceed %d unavailable devices (data would become unreachable)", d, m.cfg.MaxUnavailable)
	}
	m.transitionLocked(d, from, Failed)
	return nil
}

// Recover replaces/readmits device d (the RECOVER admin command): a Failed
// device enters Rebuilding and is resilvered by the rebuild scheduler
// before rejoining the mask (straight to Healthy when rebuild is
// disabled); a Suspect device is cleared back to Healthy.
func (m *Monitor) Recover(d int) error {
	if d < 0 || d >= m.cfg.Devices {
		return fmt.Errorf("health: device %d out of range [0,%d)", d, m.cfg.Devices)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch from := State(m.devs[d].state.Load()); from {
	case Failed:
		if m.reb == nil {
			m.transitionLocked(d, Failed, Healthy)
		} else {
			m.transitionLocked(d, Failed, Rebuilding)
		}
		return nil
	case Suspect:
		m.transitionLocked(d, Suspect, Healthy)
		return nil
	case Rebuilding:
		return fmt.Errorf("health: device %d is already rebuilding", d)
	default:
		return fmt.Errorf("health: device %d is healthy", d)
	}
}

// transition applies from→to if the device is still in from. Detector
// callers race benignly: whoever wins applies it, later observers see the
// new state.
func (m *Monitor) transition(d int, from, to State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if State(m.devs[d].state.Load()) != from {
		return
	}
	// The detector must respect the same availability guard as Fail: if
	// removing the device would strand buckets, hold it at Suspect and
	// leave the decision to the operator.
	if to == Failed && m.mask.Load().Unavailable()+1 > m.cfg.MaxUnavailable {
		return
	}
	m.transitionLocked(d, from, to)
}

// transitionLocked applies a transition, republishes the mask if
// availability changed, and drives the rebuild queue. Caller holds mu.
func (m *Monitor) transitionLocked(d int, from, to State) {
	m.devs[d].state.Store(int32(to))
	if to == Healthy {
		// Fresh start for a recovered device: clear the streaks and forget
		// the failure-era latency history so a replaced module is not
		// immediately re-suspected by its predecessor's EWMA. Entering
		// Suspect deliberately keeps the error streak — FailAfter counts
		// consecutive errors from the first one, not from the transition.
		m.devs[d].consecErr.Store(0)
		m.devs[d].consecOK.Store(0)
		m.devs[d].ewma.Store(0)
	}
	m.transitions.Add(1)
	if m.reb != nil {
		switch to {
		case Failed:
			// Re-protect: copy the device's buckets onto survivors so
			// redundancy is restored while the module is gone. A stale
			// resilver (device died again mid-rebuild) is dropped first.
			m.reb.cancel(d)
			m.reb.enqueue(d, Reprotect)
		case Rebuilding:
			// Resilver: copy the device's buckets back onto the
			// replacement before it rejoins the mask.
			m.reb.cancel(d)
			m.reb.enqueue(d, Resilver)
		case Healthy, Suspect:
			m.reb.cancel(d)
		}
	}
	if from.available() != to.available() {
		m.mask.Store(buildMask(m.devs))
	}
	if m.cfg.OnTransition != nil {
		m.cfg.OnTransition(d, from, to)
	}
}

// Step pumps the rebuild scheduler: it refills the token bucket from the
// monitor clock, dequeues as many bucket copies as the tokens allow, and
// performs them with the transition lock released — a copy may move real
// payload bytes and block on fsync, and must not stall detector
// transitions or mask rebuilds meanwhile. Devices whose resilver queue
// drains are promoted Rebuilding → Healthy after their copies complete
// (never before: a device must not rejoin the retrieval mask while its
// bytes are still in flight). Returns the number of bucket copies
// performed. Call periodically (the qosnet server ticks it from a
// background goroutine); a no-op when rebuild is disabled.
func (m *Monitor) Step() int {
	if m.reb == nil {
		return 0
	}
	m.mu.Lock()
	jobs, drained := m.reb.take(m.cfg.NowMS())
	m.mu.Unlock()
	if m.cfg.Rebuild.Copy != nil {
		for _, j := range jobs {
			m.cfg.Rebuild.Copy(j.dev, j.bucket, j.kind)
		}
	}
	if len(drained) > 0 {
		m.mu.Lock()
		for _, d := range drained {
			// Re-check under the lock: while the copies ran the device may
			// have failed again (and possibly re-entered Rebuilding with a
			// fresh work queue) — promote only a still-rebuilding device
			// with nothing left queued.
			if State(m.devs[d].state.Load()) == Rebuilding && !m.reb.hasWork(d) {
				m.transitionLocked(d, Rebuilding, Healthy)
			}
		}
		m.mu.Unlock()
	}
	return len(jobs)
}

// RebuildProgress reports the rebuild scheduler's queue depth and lifetime
// completed copies (both 0 when rebuild is disabled).
func (m *Monitor) RebuildProgress() (pending int, done int64) {
	if m.reb == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.reb.queue), m.reb.done
}
