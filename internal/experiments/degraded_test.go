package experiments

import "testing"

// TestDegradedScenarioEndToEnd is the acceptance test of the health
// subsystem: make every read served on the victim error, watch the
// detector walk Healthy → Suspect → Failed, see admission drop to S', let
// the rate-capped rebuild finish, recover the device, and see the full
// guarantee restored. The transition indices are pinned exactly, so a
// change to the fault injection or the detectors cannot move them unseen.
func TestDegradedScenarioEndToEnd(t *testing.T) {
	// 1000 copies/s at one 0.133 ms interval per request: one rebuild copy
	// every ~7.5 requests, 24 copies in ~180 requests — 2000 requests is
	// ample headroom for both passes plus detector streaks.
	rep, err := DegradedScenario(2000, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SBefore != 5 {
		t.Errorf("SBefore = %d, want 5", rep.SBefore)
	}
	if rep.SuspectAt != 56 || rep.FailedAt != 125 || rep.HealthyAt != 309 {
		t.Errorf("victim Suspect/Failed/Healthy at requests %d/%d/%d, want 56/125/309",
			rep.SuspectAt, rep.FailedAt, rep.HealthyAt)
	}
	if rep.SDegraded != 3 {
		t.Errorf("SDegraded = %d, want 3", rep.SDegraded)
	}
	if rep.ReprotectCopies != 12 {
		t.Errorf("reprotect copied %d buckets, want 12 (every bucket with a replica on the victim)", rep.ReprotectCopies)
	}
	if rep.TotalCopies != 24 {
		t.Errorf("total rebuild copies = %d, want 24 (reprotect + resilver)", rep.TotalCopies)
	}
	if !rep.RateCapOK {
		t.Error("rebuild exceeded the token-bucket rate cap")
	}
	if rep.SRestored != 5 {
		t.Errorf("SRestored = %d, want 5", rep.SRestored)
	}
	if rep.Unavailable != 0 {
		t.Errorf("%d requests unavailable; one failure must never lose a bucket", rep.Unavailable)
	}
}

// TestDegradedScenarioValidation: bad parameters error instead of running.
func TestDegradedScenarioValidation(t *testing.T) {
	if _, err := DegradedScenario(10, 9, 100); err == nil {
		t.Error("victim out of range accepted")
	}
	if _, err := DegradedScenario(10, -1, 100); err == nil {
		t.Error("negative victim accepted")
	}
}
