package flashsim_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flashqos/internal/flashsim"
	"flashqos/internal/retrieval"
)

// The paper's device model (§V-A) is one FIFO queue per flash module with a
// fixed per-block service time. The engine and the original-stand replay
// both run it as retrieval.Online with one replica per request; these tests
// pin that model at this package's latencies.

// serve submits one request for module dev at time t.
func serve(o *retrieval.Online, t float64, dev int) retrieval.Completion {
	return o.Submit(t, []int{dev})
}

func TestSingleRead(t *testing.T) {
	c := serve(retrieval.NewOnline(9, flashsim.DefaultReadLatency), 0, 3)
	if c.Device != 3 || c.Start != 0 || c.Finish != flashsim.DefaultReadLatency {
		t.Errorf("read = %+v, want module 3 from 0 to %g", c, flashsim.DefaultReadLatency)
	}
}

func TestWriteLatency(t *testing.T) {
	c := retrieval.NewOnline(1, flashsim.DefaultReadLatency).SubmitFor(0, []int{0}, flashsim.DefaultWriteLatency)
	if c.Finish != flashsim.DefaultWriteLatency {
		t.Errorf("write finished at %g, want %g", c.Finish, flashsim.DefaultWriteLatency)
	}
}

func TestFIFOQueueing(t *testing.T) {
	o := retrieval.NewOnline(1, 1.0)
	for i := 0; i < 3; i++ {
		if c := serve(o, 0, 0); c.Finish != float64(i+1) {
			t.Errorf("request %d finished at %g, want %d", i, c.Finish, i+1)
		}
	}
}

func TestParallelModules(t *testing.T) {
	o := retrieval.NewOnline(4, 1.0)
	for d := 0; d < 4; d++ {
		if c := serve(o, 0, d); c.Finish != 1 {
			t.Errorf("module %d finished at %g, want 1 (parallel)", d, c.Finish)
		}
	}
}

func TestArrivalDuringService(t *testing.T) {
	o := retrieval.NewOnline(1, 1.0)
	serve(o, 0, 0)
	if c := serve(o, 0.5, 0); c.Start != 1 || c.Finish-0.5 != 1.5 {
		t.Errorf("second request served %g..%g, want 1..2 (response 1.5)", c.Start, c.Finish)
	}
}

func TestIdleGap(t *testing.T) {
	o := retrieval.NewOnline(1, 1.0)
	serve(o, 0, 0)
	if c := serve(o, 5, 0); c.Start != 5 {
		t.Errorf("request after idle gap started at %g, want 5", c.Start)
	}
}

// Property: requests submitted in arrival order never start before they
// arrive, take exactly the service time, and never overlap on a module.
func TestQuickSimulatorInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		lat := 0.5 + rng.Float64()
		o := retrieval.NewOnline(n, lat)
		free := make([]float64, n)
		now := 0.0
		for i := 0; i < 30+rng.Intn(50); i++ {
			now += rng.Float64() * lat
			d := rng.Intn(n)
			c := serve(o, now, d)
			if c.Start < now || c.Start < free[d] || math.Abs(c.Finish-c.Start-lat) > 1e-9 {
				return false
			}
			free[d] = c.Finish
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
