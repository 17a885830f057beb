package retrieval

import (
	"math/rand"
	"testing"
)

// fullMask9 has bits 0..8 set — all nine devices of the (9,3,1) array alive.
const fullMask9 = uint64(1)<<9 - 1

// TestSubmitMaskedFullMatchesSubmit: with every device alive the masked
// path must schedule exactly like the unmasked one.
func TestSubmitMaskedFullMatchesSubmit(t *testing.T) {
	dt := dt931(t)
	a := NewOnline(9, service)
	b := NewOnline(9, service)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		at := float64(i) * 0.03 * r.Float64()
		replicas := dt.Replicas(r.Intn(36))
		want := a.Submit(at, replicas)
		got, ok := b.SubmitMasked(at, replicas, fullMask9)
		if !ok || got != want {
			t.Fatalf("request %d: SubmitMasked = %+v (ok=%v), Submit = %+v", i, got, ok, want)
		}
	}
}

// TestSubmitMaskedSkipsDeadDevices: a masked-out replica must never serve,
// even when it is the idle one.
func TestSubmitMaskedSkipsDeadDevices(t *testing.T) {
	o := NewOnline(9, service)
	replicas := []int{0, 1, 2}
	mask := fullMask9 &^ (1 << 0) // device 0 failed
	for i := 0; i < 50; i++ {
		c, ok := o.SubmitMasked(0, replicas, mask)
		if !ok {
			t.Fatal("live replicas remain, want ok")
		}
		if c.Device == 0 {
			t.Fatalf("request %d scheduled on masked-out device 0", i)
		}
	}
	// All replicas dead: nothing may be scheduled.
	before := o.NextFree(1)
	if _, ok := o.SubmitMasked(0, replicas, 0); ok {
		t.Error("all replicas masked out, want ok=false")
	}
	if o.NextFree(1) != before {
		t.Error("failed SubmitMasked mutated device state")
	}
}

// TestOnlineSubmitMaskedAllocs pins the degraded hot path at zero
// allocations: reading the availability mask is an inline bit test per
// replica, no filtering buffers (ISSUE 4 satellite).
func TestOnlineSubmitMaskedAllocs(t *testing.T) {
	dt := dt931(t)
	o := NewOnline(9, service)
	mask := fullMask9 &^ (1 << 4) // one device failed
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		o.SubmitMasked(float64(i)*0.01, dt.Replicas(i%36), mask)
		i++
	}); allocs != 0 {
		t.Errorf("Online.SubmitMasked allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkOnlineSubmitDegraded measures the masked submit path with one
// and two failed devices — the degraded-mode twin of BenchmarkOnlineSubmit
// (run with -benchmem; the CI benchmark smoke records it).
func BenchmarkOnlineSubmitDegraded(b *testing.B) {
	for _, bc := range []struct {
		name string
		mask uint64
	}{
		{"failed=1", fullMask9 &^ (1 << 4)},
		{"failed=2", fullMask9 &^ (1<<4 | 1<<7)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dt := dt931(b)
			o := NewOnline(9, service)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.SubmitMasked(float64(i)*0.01, dt.Replicas(i%36), bc.mask)
			}
		})
	}
}
