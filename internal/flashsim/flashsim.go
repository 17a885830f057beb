// Package flashsim is a discrete-event simulator for flash storage arrays,
// standing in for the DiskSim + Microsoft Research SSD extension the paper
// uses (§V-A). The model matches what the paper actually relies on: an
// array of N independent flash modules, each serving requests from a FIFO
// queue with a fixed per-block service time (one 8 KB read = 0.132507 ms in
// the MSR parameter set). Beyond that baseline the simulator supports
// optional per-module internal parallelism (ways — channels/planes serving
// requests concurrently), distinct read/write latencies, and bounded
// deterministic latency jitter for robustness experiments.
//
// Time is in milliseconds throughout, matching the paper's tables.
package flashsim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// DefaultReadLatency is the MSR SSD-extension time for one 8 KB read, ms.
const DefaultReadLatency = 0.132507

// DefaultWriteLatency is a representative 8 KB flash program time, ms.
const DefaultWriteLatency = 0.350

// Op is the request operation type.
type Op int

const (
	// Read is a block read (the only operation the paper's traces issue).
	Read Op = iota
	// Write is a block program.
	Write
)

// Config describes a flash array.
type Config struct {
	Modules      int     // number of flash modules (devices), required
	Ways         int     // concurrent operations per module (default 1)
	ReadLatency  float64 // ms per block read (default DefaultReadLatency)
	WriteLatency float64 // ms per block write (default DefaultWriteLatency)
	JitterFrac   float64 // uniform latency jitter fraction in [0, 1)
	Seed         int64   // jitter RNG seed
}

func (c *Config) applyDefaults() {
	if c.Ways == 0 {
		c.Ways = 1
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = DefaultReadLatency
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = DefaultWriteLatency
	}
}

func (c *Config) validate() error {
	if c.Modules < 1 {
		return fmt.Errorf("flashsim: need >= 1 module, got %d", c.Modules)
	}
	if c.Ways < 1 {
		return fmt.Errorf("flashsim: ways must be >= 1, got %d", c.Ways)
	}
	if c.ReadLatency <= 0 || c.WriteLatency <= 0 {
		return fmt.Errorf("flashsim: latencies must be positive")
	}
	if c.JitterFrac < 0 || c.JitterFrac >= 1 {
		return fmt.Errorf("flashsim: jitter fraction must be in [0,1), got %g", c.JitterFrac)
	}
	return nil
}

// Fault injects device-level misbehavior into one module — the hooks the
// health subsystem's end-to-end tests drive to provoke Suspect/Failed
// transitions without a real dying drive. All fields compose: a request
// first rolls for an outright error, then its service time is scaled by
// LatencyFactor and possibly a spike.
type Fault struct {
	ErrorProb     float64 // probability in [0,1] a request completes with Failed set
	SpikeProb     float64 // probability in [0,1] the service time is multiplied by SpikeFactor
	SpikeFactor   float64 // latency multiplier for spikes (default 8, must be >= 1)
	LatencyFactor float64 // steady multiplier on every service time (default 1, must be > 0)
}

func (f *Fault) applyDefaults() {
	if f.SpikeFactor == 0 {
		f.SpikeFactor = 8
	}
	if f.LatencyFactor == 0 {
		f.LatencyFactor = 1
	}
}

func (f *Fault) validate() error {
	if f.ErrorProb < 0 || f.ErrorProb > 1 {
		return fmt.Errorf("flashsim: error probability must be in [0,1], got %g", f.ErrorProb)
	}
	if f.SpikeProb < 0 || f.SpikeProb > 1 {
		return fmt.Errorf("flashsim: spike probability must be in [0,1], got %g", f.SpikeProb)
	}
	if f.SpikeFactor < 1 {
		return fmt.Errorf("flashsim: spike factor must be >= 1, got %g", f.SpikeFactor)
	}
	if f.LatencyFactor <= 0 {
		return fmt.Errorf("flashsim: latency factor must be positive, got %g", f.LatencyFactor)
	}
	return nil
}

// Request is one block I/O destined for a specific module. The controller
// (declustering + retrieval policy) decides the module before submission.
type Request struct {
	ID      int64
	Arrival float64 // ms
	Module  int
	Block   int64 // logical block number (bookkeeping only)
	Op      Op
}

// Completion reports a finished request.
type Completion struct {
	Request
	Start  float64 // service start, ms
	Finish float64 // service completion, ms
	Failed bool    // the module's injected fault errored this request
}

// Response returns the I/O driver response time: completion minus arrival
// (the metric of the paper's Table III).
func (c Completion) Response() float64 { return c.Finish - c.Arrival }

// event is a simulator event.
type event struct {
	time float64
	kind eventKind
	seq  int64 // tie-break: FIFO within equal timestamps
	req  Request
}

type eventKind int

const (
	evArrival eventKind = iota
	evComplete
)

// eventHeap orders by (time, kind: arrivals before completions at equal
// time are NOT required; use seq for stability), then seq.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// module is the per-device state.
type module struct {
	queue []Request // FIFO backlog
	busy  int       // operations in flight (<= ways)
	// fault injection
	faulty bool
	fault  Fault
	// accounting
	failed int64
}

// Array is the simulated flash array. Submit requests (arrival times may be
// in any order before Run), then Run to completion.
type Array struct {
	cfg     Config
	modules []module
	events  eventHeap
	seq     int64
	now     float64
	rng     *rand.Rand
	done    []Completion
	pending []Completion // scheduled completions for in-flight requests
}

// New creates an array from the config (defaults applied).
func New(cfg Config) (*Array, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Array{
		cfg:     cfg,
		modules: make([]module, cfg.Modules),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Submit enqueues a request for simulation. It panics on an invalid module
// or an arrival before the current simulation time (Run processes events in
// order; late submission would rewrite history).
func (a *Array) Submit(r Request) {
	if r.Module < 0 || r.Module >= a.cfg.Modules {
		panic(fmt.Sprintf("flashsim: module %d out of range [0,%d)", r.Module, a.cfg.Modules))
	}
	if r.Arrival < a.now {
		panic(fmt.Sprintf("flashsim: arrival %g before current time %g", r.Arrival, a.now))
	}
	a.seq++
	heap.Push(&a.events, event{time: r.Arrival, kind: evArrival, seq: a.seq, req: r})
}

// SetFault installs a fault profile on one module (defaults applied).
// Requests already in flight are unaffected; requests served from then on
// roll against the profile. Returns an error for an invalid module or
// profile.
func (a *Array) SetFault(module int, f Fault) error {
	if module < 0 || module >= a.cfg.Modules {
		return fmt.Errorf("flashsim: module %d out of range [0,%d)", module, a.cfg.Modules)
	}
	f.applyDefaults()
	if err := f.validate(); err != nil {
		return err
	}
	a.modules[module].faulty = true
	a.modules[module].fault = f
	return nil
}

// ClearFault removes module's fault profile (no-op when none is set).
func (a *Array) ClearFault(module int) {
	if module >= 0 && module < a.cfg.Modules {
		a.modules[module].faulty = false
		a.modules[module].fault = Fault{}
	}
}

// FailedCount returns the number of requests module d errored.
func (a *Array) FailedCount(d int) int64 { return a.modules[d].failed }

// latency returns the (possibly jittered and fault-shaped) service time
// for a request on module m.
func (a *Array) latency(m *module, op Op) float64 {
	base := a.cfg.ReadLatency
	if op == Write {
		base = a.cfg.WriteLatency
	}
	if a.cfg.JitterFrac > 0 {
		base *= 1 + a.cfg.JitterFrac*(2*a.rng.Float64()-1)
	}
	if m.faulty {
		base *= m.fault.LatencyFactor
		if m.fault.SpikeProb > 0 && a.rng.Float64() < m.fault.SpikeProb {
			base *= m.fault.SpikeFactor
		}
	}
	return base
}

// startService begins serving a request on its module at time t.
func (a *Array) startService(t float64, r Request) {
	m := &a.modules[r.Module]
	m.busy++
	lat := a.latency(m, r.Op)
	failed := m.faulty && m.fault.ErrorProb > 0 && a.rng.Float64() < m.fault.ErrorProb
	if failed {
		m.failed++
	}
	a.seq++
	heap.Push(&a.events, event{time: t + lat, kind: evComplete, seq: a.seq, req: r})
	a.pending = append(a.pending, Completion{Request: r, Start: t, Finish: t + lat, Failed: failed})
}

// Run processes all queued events and returns the completions in finish
// order. The array can keep being used afterwards (time keeps advancing).
func (a *Array) Run() []Completion {
	start := len(a.done)
	for a.events.Len() > 0 {
		ev := heap.Pop(&a.events).(event)
		a.now = ev.time
		switch ev.kind {
		case evArrival:
			m := &a.modules[ev.req.Module]
			if m.busy < a.cfg.Ways {
				a.startService(a.now, ev.req)
			} else {
				m.queue = append(m.queue, ev.req)
			}
		case evComplete:
			m := &a.modules[ev.req.Module]
			m.busy--
			a.recordCompletion(ev)
			if len(m.queue) > 0 && m.busy < a.cfg.Ways {
				next := m.queue[0]
				m.queue = m.queue[1:]
				a.startService(a.now, next)
			}
		}
	}
	out := make([]Completion, len(a.done)-start)
	copy(out, a.done[start:])
	return out
}

// recordCompletion moves the matching pending completion into done. Linear
// search is fine: at most Modules×Ways operations are in flight.
func (a *Array) recordCompletion(ev event) {
	for i := range a.pending {
		p := a.pending[i]
		if p.Request.ID == ev.req.ID && p.Request.Module == ev.req.Module && p.Finish == ev.time {
			a.done = append(a.done, p)
			a.pending = append(a.pending[:i], a.pending[i+1:]...)
			return
		}
	}
	panic("flashsim: completion event without pending record")
}

// Now returns the current simulation time.
func (a *Array) Now() float64 { return a.now }
