package experiments

import (
	"fmt"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/health"
)

// DegradedReport traces the end-to-end failure → degrade → rebuild →
// recover arc of the health subsystem (ISSUE 4 acceptance flow).
type DegradedReport struct {
	SBefore         int   // admission limit while healthy: S(M)
	SDegraded       int   // limit after the detector fails the device: S'(M)
	SRestored       int   // limit after resilver completes
	SuspectAt       int   // request index of the Healthy → Suspect transition
	FailedAt        int   // request index of the Suspect → Failed transition
	HealthyAt       int   // request index the device rejoined (resilver drained)
	ReprotectCopies int64 // rebuild copies when the reprotect pass drained
	TotalCopies     int64 // rebuild copies at the end (reprotect + resilver)
	Unavailable     int   // requests lost for lack of a live replica (must be 0)
	RateCapOK       bool  // copies never exceeded 1 + rate·t (token bucket of depth 1)
}

// DegradedScenario drives the whole stack against an injected device
// failure: the core system schedules mask-aware reads, every read it serves
// on the victim errors while the fault is on, completions feed the health
// detectors, the detectors take the faulty device out of service (admission
// drops S → S'), the token-bucket rebuild re-replicates its buckets, and —
// once the fault is cleared and the device recovered — a resilver brings it
// back and restores S.
//
// requests is the read count to drive (cycling the 36 buckets of the
// (9,3,1) design), victim the module to break, rebuildRate the rebuild cap
// in copies/second. The simulation clock advances one QoS interval per
// request, so rebuildRate trades directly against requests: the scenario
// needs roughly 24·(1000/rebuildRate)/0.133 requests of headroom for both
// rebuild passes.
func DegradedScenario(requests, victim int, rebuildRate float64) (*DegradedReport, error) {
	const intervalMS = 0.133
	sys, err := core.New(core.Config{Design: design.Paper931(), M: 1, IntervalMS: intervalMS})
	if err != nil {
		return nil, err
	}
	if victim < 0 || victim >= 9 {
		return nil, fmt.Errorf("experiments: victim %d out of range", victim)
	}
	clock := 0.0
	rep := &DegradedReport{SuspectAt: -1, FailedAt: -1, HealthyAt: -1, RateCapOK: true}
	reqIndex := 0
	mon, err := sys.NewHealthMonitor(rebuildRate, health.Config{
		NowMS: func() float64 { return clock },
		OnTransition: func(dev int, from, to health.State) {
			if dev != victim {
				return
			}
			switch {
			case to == health.Suspect && rep.SuspectAt < 0:
				rep.SuspectAt = reqIndex
			case to == health.Failed && rep.FailedAt < 0:
				rep.FailedAt = reqIndex
			case to == health.Healthy && rep.FailedAt >= 0 && rep.HealthyAt < 0:
				rep.HealthyAt = reqIndex
			}
		},
	})
	if err != nil {
		return nil, err
	}
	rep.SBefore = sys.EffectiveS()

	const faultAt = 40 // healthy warm-up before the device starts erroring
	faulty := false
	rebuildStartMS := 0.0
	for reqIndex = 0; reqIndex < requests; reqIndex++ {
		if reqIndex == faultAt {
			faulty = true
		}
		out := sys.Submit(clock, int64(reqIndex%36))
		if out.Unavailable {
			rep.Unavailable++
		} else if !out.Rejected {
			// Feed the served read back into the health detectors — the
			// loop a real deployment closes through the storage backend.
			// While the fault is on, every read on the victim errors.
			if faulty && out.Device == victim {
				mon.ReportError(out.Device)
			} else {
				mon.ReportSuccess(out.Device, out.Finish-out.Start)
			}
		}
		if rep.FailedAt >= 0 && rep.SDegraded == 0 {
			rep.SDegraded = sys.EffectiveS()
			rebuildStartMS = clock
		}
		mon.Step()
		// Token-bucket invariant: at most 1 + rate·t copies in any interval
		// of length t since rebuild work existed (the bucket holds 1 token).
		if pending, done := mon.RebuildProgress(); pending > 0 || done > 0 {
			if allowed := 1 + rebuildRate*(clock-rebuildStartMS)/1000; rep.FailedAt >= 0 && float64(done) > allowed+1e-9 {
				rep.RateCapOK = false
			}
			// Reprotect drained and the fault is still active: clear it and
			// bring the device back, starting the resilver.
			if pending == 0 && faulty && rep.FailedAt >= 0 && mon.State(victim) == health.Failed {
				rep.ReprotectCopies = done
				faulty = false
				if err := mon.Recover(victim); err != nil {
					return nil, err
				}
			}
		}
		clock += intervalMS
	}
	_, rep.TotalCopies = mon.RebuildProgress()
	rep.SRestored = sys.EffectiveS()
	return rep, nil
}
