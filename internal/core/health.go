package core

import (
	"fmt"

	"flashqos/internal/design"
	"flashqos/internal/health"
)

// Health integration: when a health.Monitor is attached, the admission and
// retrieval paths consult its availability mask — one atomic pointer load
// per request, no locks, no allocations — and the per-interval guarantee
// degrades predictably instead of silently breaking.
//
// # The degraded guarantee S'
//
// The full-array guarantee S(M) = (c-1)M² + cM counts how many buckets are
// always retrievable in M parallel accesses when every bucket has c
// replicas on distinct devices and any two devices share at most λ = 1
// bucket (paper §II-B2). Removing f devices from service preserves the
// pair-intersection property (a sub-array of a λ=1 design still has λ ≤ 1)
// and leaves every bucket at least c' = c - f live replicas, so the same
// counting argument yields the degraded guarantee
//
//	S'(M) = (c'-1)M² + c'M,  c' = c - f.
//
// For the paper's (9,3,1) design with M = 1: S = 5, one failure → S' = 3,
// two failures → S' = 1. The monitor's MaxUnavailable guard (set to c-1
// here) refuses to take the f-th device out of service when f >= c, which
// is exactly where buckets would lose their last replica — so c' >= 1 and
// S' >= M always hold while data is reachable.

// AttachHealth wires a device-health monitor into the system: admission
// recomputes the effective guarantee S' from the monitor's mask and
// retrieval skips unavailable devices. The monitor must cover exactly the
// system's devices. Attach before serving; submissions read the monitor's
// snapshots from then on.
//
// Statistical mode (Epsilon > 0) keeps its full-array probability table —
// the sampled P_k distribution is not recomputed for the degraded array —
// so under failures the deterministic limit degrades to S' but Q remains
// the full-array estimate. This is a documented approximation, not a
// guarantee.
func (s *System) AttachHealth(mon *health.Monitor) error {
	if mon == nil {
		s.health = nil
		return nil
	}
	if n := s.alloc.Devices(); mon.Devices() != n {
		return fmt.Errorf("core: health monitor covers %d devices, system has %d", mon.Devices(), n)
	}
	if s.alloc.Devices() > 64 {
		return fmt.Errorf("core: health masks support at most 64 devices, system has %d", s.alloc.Devices())
	}
	s.health = mon
	return nil
}

// Health returns the attached monitor (nil when none).
func (s *System) Health() *health.Monitor { return s.health }

// NewHealthMonitor builds a monitor shaped for this system: one state
// machine per flash module, the availability guard at c-1 (the design's
// fault-tolerance limit), the latency baseline at the configured service
// time, and — when rebuildRate > 0 — a token-bucket rebuild scheduler
// whose work lists come from the allocator (every bucket with a replica on
// the failed device). Remaining Config fields (detector thresholds, clock,
// callbacks) come from over; its Devices, MaxUnavailable, BaselineMS and
// Rebuild.BucketsOf are overwritten.
func (s *System) NewHealthMonitor(rebuildRate float64, over health.Config) (*health.Monitor, error) {
	over.Devices = s.alloc.Devices()
	over.MaxUnavailable = s.alloc.Copies() - 1
	if over.BaselineMS == 0 {
		over.BaselineMS = s.cfg.ServiceMS
	}
	over.Rebuild.RatePerSec = rebuildRate
	if rebuildRate > 0 {
		alloc := s.alloc
		over.Rebuild.BucketsOf = func(dev int) []int {
			var buckets []int
			for b := 0; b < alloc.Rows(); b++ {
				for _, d := range alloc.Replicas(b) {
					if d == dev {
						buckets = append(buckets, b)
						break
					}
				}
			}
			return buckets
		}
	}
	mon, err := health.NewMonitor(over)
	if err != nil {
		return nil, err
	}
	if err := s.AttachHealth(mon); err != nil {
		return nil, err
	}
	return mon, nil
}

// maskLimit snapshots the availability state for one admission decision:
// the device bitmask, the effective per-interval limit (S, or S' when
// degraded), and whether masking applies at all. One atomic load; zero
// allocations.
func (e *engine) maskLimit() (bits uint64, limit int, masked bool) {
	if e.health == nil {
		return 0, e.s, false
	}
	m := e.health.Mask()
	if m.Full() {
		return m.Bits, e.s, true
	}
	return m.Bits, e.degradedS(m.Unavailable()), true
}

// degradedS prices the guarantee for f unavailable devices.
func (e *engine) degradedS(f int) int {
	sp := design.SFor(e.alloc.Copies()-f, e.cfg.M)
	if sp < 1 {
		// Unreachable when the monitor's MaxUnavailable guard is c-1;
		// serve best-effort one-per-interval rather than wedging.
		return 1
	}
	return sp
}

// EffectiveS returns the current admission limit: S(M) with a healthy
// array, S'(M) when the health mask is degraded.
func (e *engine) EffectiveS() int {
	_, limit, _ := e.maskLimit()
	return limit
}

// aliveReplicas counts the replicas inside the mask.
func aliveReplicas(replicas []int, mask uint64) int {
	n := 0
	for _, d := range replicas {
		if mask&(1<<uint(d)) != 0 {
			n++
		}
	}
	return n
}
