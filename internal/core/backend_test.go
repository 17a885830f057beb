package core

import (
	"math"
	"testing"

	"flashqos/internal/flashsim"
)

func TestNormalizeService(t *testing.T) {
	r, w := normalizeService(MemBackend{}, 0, 0)
	if r != flashsim.DefaultReadLatency || w != flashsim.DefaultWriteLatency {
		t.Errorf("normalizeService(MemBackend{}, 0, 0) = %g, %g, want flashsim defaults", r, w)
	}
	r, w = normalizeService(MemBackend{ReadMS: 0.2, WriteMS: 0.5}, 0, 0)
	if r != 0.2 || w != 0.5 {
		t.Errorf("normalizeService(mem, 0, 0) = %g, %g, want 0.2, 0.5", r, w)
	}
	r, w = normalizeService(MemBackend{ReadMS: 0.2, WriteMS: 0.5}, 0.3, 0.7)
	if r != 0.3 || w != 0.7 {
		t.Errorf("explicit service times overridden: got %g, %g", r, w)
	}
}

// TestBackendDefaultsFlowIntoSystem checks that a System picks its service
// times up from the configured backend, end to end through admission.
func TestBackendDefaultsFlowIntoSystem(t *testing.T) {
	sys, err := New(Config{N: 9, C: 3, IntervalMS: 0.25, Backend: MemBackend{ReadMS: 0.2, WriteMS: 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	out := sys.Submit(0, 1)
	if math.Abs(out.Response()-0.2) > 1e-12 {
		t.Errorf("read response %g, want backend read latency 0.2", out.Response())
	}
	wout := sys.SubmitWrite(1.0, 2)
	if math.Abs(wout.Response()-0.6) > 1e-12 {
		t.Errorf("write response %g, want backend write latency 0.6", wout.Response())
	}
}
