package flashsim

import "fmt"

// SSDArray is an array of FTL-backed SSD modules — the execution substrate
// for experiments that ask what happens to the QoS guarantees when the
// fixed-service abstraction leaks (mixed read/write traffic, GC). The
// controller still decides which module serves each request; the array
// returns the realized completion time including any FTL interference.
type SSDArray struct {
	modules []*SSD
	lastT   []float64
}

// NewSSDArray builds n identical SSD modules.
func NewSSDArray(n int, cfg SSDConfig) (*SSDArray, error) {
	if n < 1 {
		return nil, fmt.Errorf("flashsim: need >= 1 module")
	}
	arr := &SSDArray{modules: make([]*SSD, n), lastT: make([]float64, n)}
	for i := range arr.modules {
		ssd, err := NewSSD(cfg)
		if err != nil {
			return nil, err
		}
		arr.modules[i] = ssd
	}
	return arr, nil
}

func (a *SSDArray) check(module int, t float64) {
	if module < 0 || module >= len(a.modules) {
		panic(fmt.Sprintf("flashsim: module %d out of range [0,%d)", module, len(a.modules)))
	}
	if t < a.lastT[module] {
		panic(fmt.Sprintf("flashsim: time went backwards on module %d: %g < %g", module, t, a.lastT[module]))
	}
}

// Read submits a block read to a module at time t, returning its
// completion time.
func (a *SSDArray) Read(module int, t float64, block int64) float64 {
	a.check(module, t)
	a.lastT[module] = t
	return a.modules[module].Read(t, block)
}

// Write submits a block write to a module at time t, returning its
// completion time.
func (a *SSDArray) Write(module int, t float64, block int64) float64 {
	a.check(module, t)
	a.lastT[module] = t
	return a.modules[module].Write(t, block)
}

// TotalGCRuns sums garbage collections across modules.
func (a *SSDArray) TotalGCRuns() int64 {
	var total int64
	for _, m := range a.modules {
		total += m.GCRuns()
	}
	return total
}
