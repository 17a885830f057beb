// Package core is the replication-based QoS framework for flash arrays —
// the paper's primary contribution (§III, §IV). It composes the substrate
// packages into a running system:
//
//   - an (N, c, 1) design-theoretic allocator decides where the c replicas
//     of every bucket live (decluster, design);
//   - FIM-driven block matching maps the storage system's data blocks onto
//     the design's allocation rows (fim, blockmap);
//   - deterministic or statistical admission control bounds the number of
//     requests retrieved per interval T (admission, sampling);
//   - online or interval-aligned retrieval schedules admitted requests on
//     replica devices (retrieval);
//   - admission prices every request at one per-block read/write service
//     time (Config.ServiceMS, flashsim's 0.132507 ms by default);
//     ReplayOriginal replays the unadmitted "original stand" on flashsim.
//
// One admission/retrieval engine implements the submit paths (engine.go)
// in one configuration; System is its public face. Submit, SubmitWrite,
// SubmitBatch and SubmitBurst are the online API the examples and the
// network layer use; ReplayTrace (online retrieval) and ReplayAligned
// (interval-aligned) drive a whole trace through the pipeline and produce
// the per-interval report behind the paper's Figs 8–12.
package core

import (
	"fmt"

	"flashqos/internal/admission"
	"flashqos/internal/blockmap"
	"flashqos/internal/decluster"
	"flashqos/internal/design"
	"flashqos/internal/fim"
	"flashqos/internal/flashsim"
	"flashqos/internal/sampling"
	"flashqos/internal/stats"
	"flashqos/internal/trace"
)

// Config assembles a QoS system. Admission follows the paper's one policy
// (§III-A): a request that cannot be admitted in its arrival window is
// delayed to the next window with room, never dropped. Outcome.Rejected is
// reserved for requests no window can ever take: every replica unavailable,
// an unknown tenant, a tenant over its arrival limit, or a tenant cap too
// small for the request.
type Config struct {
	// Design is the (N, c, 1) design to allocate with. If nil, N and C
	// select one via design.ForParams.
	Design *design.Design
	N, C   int

	// M is the access-count guarantee target; the admission limit is
	// S = (c-1)M² + cM. Default 1.
	M int
	// IntervalMS is the QoS interval T. Default 0.133 ms (paper §V-D).
	IntervalMS float64
	// ServiceMS is the per-block read time. Defaults to flashsim's read
	// latency (0.132507 ms).
	ServiceMS float64
	// WriteServiceMS is the per-block program time for the SubmitWrite
	// extension. Defaults to flashsim's write latency (0.350 ms).
	WriteServiceMS float64
	// Epsilon enables statistical QoS when > 0 (§III-B); 0 is deterministic.
	Epsilon float64
	// FIM configuration: minimum pair support and mining window. A
	// MinSupport of 0 keeps the default (2); set UseFIM=false to disable
	// mining and use the modulo mapping only.
	FIMMinSupport int
	DisableFIM    bool
	// Table optionally injects a precomputed optimal-retrieval probability
	// table for statistical QoS; when nil and Epsilon > 0, one is sampled
	// at construction (SampleTrials trials, default 20000).
	Table        *sampling.Table
	SampleTrials int
	Seed         int64
	// Backend fills whichever of ServiceMS and WriteServiceMS is left zero.
	//
	// Deprecated: set ServiceMS and WriteServiceMS. The field survives only
	// because the read-only benchmark module (bench/) sets it.
	Backend MemBackend
	// Allocator optionally injects a prebuilt design-theoretic allocator.
	// It must be built over the same design the system uses (Design when
	// set, else the allocator's own design is adopted). The allocator is
	// immutable after construction, so sharded deployments pass one
	// instance to every shard: the replica table is stored once and stays
	// cache-resident instead of being duplicated per shard. When nil, one
	// is built from the design.
	Allocator *decluster.DesignTheoretic
	// DeviceBase is the global id of this system's device 0: outcomes
	// report Device as DeviceBase + local device. Sharded deployments give
	// shard i a base of i·N so the submit hot path emits global ids without
	// a per-outcome translation pass (see shard.New). Default 0. All
	// internal state — replica lists, masks, the scheduler — stays in local
	// device numbering; only the Outcome.Device field is offset.
	DeviceBase int
}

func (c *Config) applyDefaults() {
	if c.M == 0 {
		c.M = 1
	}
	if c.IntervalMS == 0 {
		c.IntervalMS = 0.133
	}
	c.ServiceMS, c.WriteServiceMS = normalizeService(c.Backend, c.ServiceMS, c.WriteServiceMS)
	if c.FIMMinSupport == 0 {
		c.FIMMinSupport = 2
	}
	if c.SampleTrials == 0 {
		c.SampleTrials = 20000
	}
}

// Outcome reports what happened to one submitted request.
type Outcome struct {
	Admitted float64 // time the request was admitted for retrieval
	Device   int     // device serving the request
	Start    float64 // service start
	Finish   float64 // service completion
	Delay    float64 // Admitted - arrival (0 when served on arrival)
	Delayed  bool    // Delay exceeded tolerance
	Rejected bool    // never admitted; see Config for the causes
	// Unavailable marks a rejection because every replica of the block is
	// on a failed/rebuilding device (only possible with a health monitor
	// attached and more than c-1 devices out of service).
	Unavailable bool
	// Tenant is the 1-based tenant index the request carried (0 = none);
	// it round-trips wire tenant tags back out through the response path.
	Tenant int32
	// OverLimit marks a rejection by the tenant gate's per-window arrival
	// limit — the request consumed no S-bound ledger credit.
	OverLimit bool
}

// Response returns the post-admission response time, the quantity the
// paper's QoS lines plot (flat at the service time when guarantees hold).
func (o Outcome) Response() float64 { return o.Finish - o.Admitted }

// System is a running QoS instance. The submission verbs (Submit,
// SubmitTenant, SubmitWrite, SubmitWriteTenant, SubmitBatch, SubmitBurst),
// SetTenants and every read-only accessor are safe to call from any
// goroutine at once; Remap, Reset, AttachHealth, ReplayTrace and
// ReplayAligned are single-caller and must not run while requests are in
// flight (replica lookup is lock-free, so a remap under load would tear
// it).
//
// Arrivals need not be ordered across goroutines: callers submit with
// whatever timestamps they observed. The deterministic path tolerates
// out-of-order arrivals because window reservation is commutative; the
// statistical path tolerates them because a window merged before a
// straggler lands simply misses that straggler in its recorded size — the
// bounded staleness the estimator already prices in (DESIGN.md §10).
// Submitted in non-decreasing arrival order from one goroutine, outcomes
// are deterministic; the golden transcripts pin them byte for byte.
type System struct {
	*engine
}

// Deprecated: the separate concurrent facade is gone — every System is safe
// for concurrent submission. This alias survives only because the read-only
// benchmark module (bench/layers.go) names the type.
type ConcurrentSystem = System

// New builds a system from the config.
func New(cfg Config) (*System, error) {
	eng, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &System{engine: eng}, nil
}

// Allocator exposes the design-theoretic allocator.
func (s *System) Allocator() *decluster.DesignTheoretic { return s.alloc }

// S returns the admission limit S(M).
func (s *System) S() int { return s.s }

// Design returns the block design in use.
func (s *System) Design() *design.Design { return s.alloc.Design() }

// DeviceBase returns the global id of this system's device 0
// (Config.DeviceBase): the offset outcomes report devices at.
func (s *System) DeviceBase() int { return s.cfg.DeviceBase }

// IntervalMS returns the QoS interval T in milliseconds.
func (s *System) IntervalMS() float64 { return s.cfg.IntervalMS }

// Mapper exposes the data-block mapper (for inspection).
func (s *System) Mapper() *blockmap.Mapper { return s.mapper }

// Remap mines the previous interval's records (FIM, set size 2, window T)
// and rebuilds the data-block → design-block mapping (§IV-A). Returns the
// number of frequent pairs found.
func (s *System) Remap(prev []trace.Record) int {
	if s.cfg.DisableFIM {
		return 0
	}
	txs := fim.TransactionsFromRecords(prev, s.cfg.IntervalMS)
	pairs := fim.MinePairs(txs, s.cfg.FIMMinSupport)
	s.mapper.BuildFromPairs(pairs)
	return len(pairs)
}

// Submit runs one block read through admission control and online
// retrieval. With a health monitor attached, retrieval skips unavailable
// devices and admission enforces the degraded limit S' instead of S (the
// availability snapshot is taken once per call).
func (s *System) Submit(arrival float64, dataBlock int64) Outcome {
	return s.submit(arrival, dataBlock, 0)
}

// SubmitTenant is Submit with a tenant identity: the request passes the
// per-tenant mClock gate (arrival limit, then a reserved/weighted window
// cap) before any S-bound ledger credit is consumed. Tenant indices are
// the 1-based slots configured via SetTenants; 0 behaves exactly like
// Submit. Unknown tenants are rejected, never served untenanted.
func (s *System) SubmitTenant(arrival float64, dataBlock int64, tenant int32) Outcome {
	return s.submit(arrival, dataBlock, tenant)
}

// SubmitBatch admits a set of simultaneous block requests jointly — the
// §III interval model, where an application's period requests arrive
// together and are retrieved with the design-theoretic batch algorithm
// (remapping included). Up to the window's remaining capacity is admitted
// and scheduled with the optimal joint assignment; overflow falls back to
// the per-request path and is delayed. Outcomes are in
// input order. With a non-nil per-caller scratch the steady state is
// allocation-free and the returned slice is valid until the scratch's next
// use; a nil scratch allocates fresh buffers.
func (s *System) SubmitBatch(arrival float64, blocks []int64, sc *BatchScratch) []Outcome {
	return s.submitBatch(arrival, blocks, sc)
}

// SubmitWrite schedules a block write — an extension beyond the paper's
// read-only evaluation. A write must update all c replicas, so it consumes
// c slots of the interval's admission budget and requires every replica
// device idle (deterministic path). The write occupies each replica for
// WriteServiceMS; the outcome's response is the completion of the slowest
// replica. Writes may exceed the interval guarantee (flash programs are
// slower than reads); admission ensures they never preempt already
// admitted reads, but reads arriving afterwards can be delayed behind
// them, which the delay accounting reports honestly.
// Degraded writes (health monitor attached, devices out of service) update
// only the available replicas and consume only that many admission slots;
// the rebuild scheduler owns bringing the missing copies back in sync.
func (s *System) SubmitWrite(arrival float64, dataBlock int64) Outcome {
	return s.submitWrite(arrival, dataBlock, 0)
}

// SubmitWriteTenant is SubmitWrite with a tenant identity: the write
// charges one arrival against the tenant's limit and all c replica
// slots (all-or-nothing) against its window cap before the S-bound
// reservation. Tenant 0 behaves exactly like SubmitWrite.
func (s *System) SubmitWriteTenant(arrival float64, dataBlock int64, tenant int32) Outcome {
	return s.submitWrite(arrival, dataBlock, tenant)
}

// SetTenants validates and atomically installs a per-tenant QoS policy
// (see internal/admission): slot i of specs is tenant index i+1,
// ΣReserve must fit within S, and the surplus S − ΣReserve is shared by
// weight. The swap is a snapshot publication — in-flight submissions
// finish against the policy they loaded, nothing pauses, and the new
// policy opens fresh per-window accounting. Passing a table with no
// active slots turns the gate off. Per-tenant gauges survive
// reconfiguration, keyed by tenant name.
func (s *System) SetTenants(specs []admission.TenantSpec) error {
	return s.tenants.Configure(specs)
}

// TenantSpecs returns a copy of the installed tenant slot table.
func (s *System) TenantSpecs() []admission.TenantSpec { return s.tenants.Specs() }

// TenantCounters reads a tenant's admission gauges by name.
func (s *System) TenantCounters(name string) (admission.Counters, bool) {
	return s.tenants.Counters(name)
}

// Q returns the statistical controller's current estimate of the
// probability that an interval's requests cannot be retrieved optimally
// (0 for deterministic systems). Note the model prices request-count risk
// only — the paper's formula Q = Σ(1-P_k)·R_k knows nothing about which
// blocks are requested — so realized violations can exceed Q when
// admitted conflicting requests share replica sets; ε bounds the model,
// not the adversarial worst case.
func (s *System) Q() float64 {
	if s.stat == nil {
		return 0
	}
	return s.stat.q()
}

// Window returns the T-window index of a time.
func (s *System) Window(t float64) int64 { return s.window(t) }

// WindowCount reports the admitted count currently recorded for window w
// (test hook).
func (s *System) WindowCount(w int64) int { return s.ledger.count(w) }

// MaxWindowCount returns the largest admitted count recorded for any
// tracked window — after quiescence it must never exceed S in
// deterministic mode (test hook; statistical mode over-admits by design).
func (s *System) MaxWindowCount() int { return s.ledger.maxCount() }

// Reset clears all scheduling and admission state (the mapper is kept).
func (s *System) Reset() {
	s.sched.Reset()
	s.ledger.reset()
	if s.stat != nil {
		s.stat.resetWindows()
	}
}

// --- Trace replay ---

// IntervalReport aggregates one reporting interval of a replay, mirroring
// the per-interval series of Figs 8–11.
type IntervalReport struct {
	Index       int
	Requests    int
	Rejected    int
	AvgResponse float64 // post-admission response time, ms
	MaxResponse float64
	DelayedPct  float64 // % of requests delayed
	AvgDelay    float64 // mean delay of the delayed requests, ms
	AvgDelayAll float64 // mean delay over ALL requests (Fig 12 metric), ms
	MaxDelay    float64
	FIMMatchPct float64 // % of mined blocks seen again this interval (Fig 11)
	FIMPairs    int     // frequent pairs mined from the previous interval
}

// Report is the result of a trace replay.
type Report struct {
	Name      string
	Intervals []IntervalReport
	// Overall aggregates.
	Requests    int
	Rejected    int
	AvgResponse float64
	MaxResponse float64
	DelayedPct  float64
	AvgDelay    float64 // over delayed requests
	AvgDelayAll float64 // over all requests (Fig 12 metric)
	Utilization float64 // mean device busy fraction over the replayed span
	// Write extension accounting (reads populate the fields above, keeping
	// the paper's read-only figures comparable).
	WriteRequests   int
	WriteAvgResp    float64
	WriteDelayedPct float64
}

// ReplayTrace drives a trace through the pipeline: before each reporting
// interval the previous interval is mined and the block mapping rebuilt
// (§V-D: "we use the trace one previous than the current interval for
// mining"); every read request then passes admission and retrieval.
func (s *System) ReplayTrace(tr *trace.Trace) *Report {
	tr.Sort() // replay is deterministic in arrival order
	rep := &Report{Name: tr.Name}
	var respAll, delayAll stats.Summary
	delayedTotal := 0
	n := tr.NumIntervals()
	var wResp stats.Summary
	writeDelayed := 0
	for i := 0; i < n; i++ {
		recs := tr.Interval(i)
		ir := IntervalReport{Index: i}
		if i > 0 {
			ir.FIMPairs = s.Remap(tr.Interval(i - 1))
		}
		ir.FIMMatchPct = 100 * s.mapper.MappedSeenFraction(trace.DistinctBlocks(recs))
		var resp, delay stats.Summary
		delayed := 0
		for _, r := range recs {
			if r.Write {
				wout := s.SubmitWrite(r.Arrival, r.Block)
				if !wout.Rejected {
					wResp.Add(wout.Response())
					if wout.Delayed {
						writeDelayed++
					}
				}
				continue
			}
			out := s.Submit(r.Arrival, r.Block)
			if out.Rejected {
				ir.Rejected++
				rep.Rejected++
				continue
			}
			resp.Add(out.Response())
			respAll.Add(out.Response())
			if out.Delayed {
				delayed++
				delayedTotal++
				delay.Add(out.Delay)
				delayAll.Add(out.Delay)
			}
		}
		ir.Requests = resp.N() + ir.Rejected
		ir.AvgResponse = resp.Mean()
		ir.MaxResponse = resp.Max()
		if ir.Requests > 0 {
			ir.DelayedPct = 100 * float64(delayed) / float64(ir.Requests)
		}
		ir.AvgDelay = delay.Mean()
		ir.MaxDelay = delay.Max()
		if ir.Requests > 0 {
			ir.AvgDelayAll = delay.Mean() * float64(delay.N()) / float64(ir.Requests)
		}
		rep.Intervals = append(rep.Intervals, ir)
	}
	rep.Requests = respAll.N() + rep.Rejected
	rep.AvgResponse = respAll.Mean()
	rep.MaxResponse = respAll.Max()
	if rep.Requests > 0 {
		rep.DelayedPct = 100 * float64(delayedTotal) / float64(rep.Requests)
	}
	rep.AvgDelay = delayAll.Mean()
	if rep.Requests > 0 {
		rep.AvgDelayAll = delayAll.Mean() * float64(delayAll.N()) / float64(rep.Requests)
	}
	if n > 0 && tr.IntervalMS > 0 {
		rep.Utilization = s.sched.Utilization(float64(n) * tr.IntervalMS)
	}
	rep.WriteRequests = wResp.N()
	rep.WriteAvgResp = wResp.Mean()
	if wResp.N() > 0 {
		rep.WriteDelayedPct = 100 * float64(writeDelayed) / float64(wResp.N())
	}
	return rep
}

// ReplayAligned is ReplayTrace with interval-aligned retrieval (§III-C),
// the alternative Fig 12 compares online retrieval against: requests
// arriving in T-window w are retrieved together at the start of window w+1
// with the design-theoretic batch algorithm's optimal joint assignment; at
// most S are admitted per batch and the rest carry to the next batch.
// Writes are skipped.
func (s *System) ReplayAligned(tr *trace.Trace) *Report {
	tr.Sort() // replay is deterministic in arrival order
	rep := &Report{Name: tr.Name}
	var respAll, delayAll stats.Summary
	delayedTotal := 0
	n := tr.NumIntervals()

	type pending struct {
		arrival  float64
		interval int
		replicas []int
	}
	var backlog []pending
	perInterval := make([]IntervalReport, n)
	var respI = make([]stats.Summary, n)
	var delayI = make([]stats.Summary, n)
	delayedI := make([]int, n)

	// flush retrieves up to S of the batch at time `at` and returns the
	// overflow, which is delayed to the next window (paper: "delayed to the
	// next available interval").
	flush := func(batch []pending, at float64) []pending {
		if len(batch) == 0 {
			return nil
		}
		take := len(batch)
		if take > s.s {
			take = s.s
		}
		now, rest := batch[:take], batch[take:]
		replicas := make([][]int, len(now))
		for i, p := range now {
			replicas[i] = p.replicas
		}
		cs := s.sched.IntervalBatch(at, replicas)
		for i, c := range cs {
			p := now[i]
			d := at - p.arrival
			respI[p.interval].Add(c.Finish - at)
			respAll.Add(c.Finish - at)
			if d > delayTol {
				delayedI[p.interval]++
				delayedTotal++
				delayI[p.interval].Add(d)
				delayAll.Add(d)
			}
		}
		return rest
	}

	// Walk T-windows across the whole trace. Requests arriving exactly at a
	// window start are retrieved in that window (the §III model: requests
	// issued at the beginning of each interval complete within it); requests
	// arriving mid-window are aligned to the start of the next window
	// (§IV-B), as is admission overflow.
	recs := tr.Records
	ri := 0
	w := int64(0)
	if len(recs) > 0 {
		w = s.window(recs[0].Arrival)
	}
	lastRemapIv := 0
	for ri < len(recs) || len(backlog) > 0 {
		wStart := float64(w) * s.cfg.IntervalMS
		// FIM remapping at reporting-interval boundaries.
		if tr.IntervalMS > 0 {
			curIv := int(wStart / tr.IntervalMS)
			if curIv > lastRemapIv && curIv < n {
				perInterval[curIv].FIMPairs = s.Remap(tr.Interval(curIv - 1))
				lastRemapIv = curIv
			}
		}
		var boundary, mid []pending
		for ri < len(recs) && s.window(recs[ri].Arrival) == w {
			r := recs[ri]
			ri++
			if r.Write {
				continue
			}
			iv := tr.IntervalOf(r)
			if iv >= n {
				iv = n - 1
			}
			p := pending{arrival: r.Arrival, interval: iv, replicas: s.Replicas(r.Block)}
			if r.Arrival-wStart <= delayTol {
				boundary = append(boundary, p)
			} else {
				mid = append(mid, p)
			}
		}
		backlog = flush(append(backlog, boundary...), wStart)
		backlog = append(backlog, mid...)
		// Advance; skip idle stretches when nothing is pending.
		if len(backlog) == 0 && ri < len(recs) {
			w = s.window(recs[ri].Arrival)
		} else {
			w++
		}
	}
	for i := 0; i < n; i++ {
		ir := &perInterval[i]
		ir.Index = i
		ir.Requests = respI[i].N()
		ir.AvgResponse = respI[i].Mean()
		ir.MaxResponse = respI[i].Max()
		if ir.Requests > 0 {
			ir.DelayedPct = 100 * float64(delayedI[i]) / float64(ir.Requests)
		}
		ir.AvgDelay = delayI[i].Mean()
		ir.MaxDelay = delayI[i].Max()
		if ir.Requests > 0 {
			ir.AvgDelayAll = delayI[i].Mean() * float64(delayI[i].N()) / float64(ir.Requests)
		}
		ir.FIMMatchPct = 0 // not tracked per-interval in aligned mode
		rep.Intervals = append(rep.Intervals, *ir)
	}
	rep.Requests = respAll.N()
	rep.AvgResponse = respAll.Mean()
	rep.MaxResponse = respAll.Max()
	if rep.Requests > 0 {
		rep.DelayedPct = 100 * float64(delayedTotal) / float64(rep.Requests)
	}
	rep.AvgDelay = delayAll.Mean()
	if rep.Requests > 0 {
		rep.AvgDelayAll = delayAll.Mean() * float64(delayAll.N()) / float64(rep.Requests)
	}
	return rep
}

// ReplayOriginal replays a trace "as stated" (the paper's original stand,
// §V-D): every request goes to the device named in the trace record, FCFS,
// with no admission control, on the flashsim discrete-event model. The
// response times include queueing delay. A serviceMS <= 0 uses flashsim's
// default read latency.
func ReplayOriginal(tr *trace.Trace, devices int, serviceMS float64) (*Report, error) {
	if devices < 1 {
		return nil, fmt.Errorf("core: devices must be >= 1")
	}
	serviceMS, _ = normalizeService(MemBackend{}, serviceMS, 0)
	arr, err := flashsim.New(flashsim.Config{Modules: devices, ReadLatency: serviceMS})
	if err != nil {
		return nil, err
	}
	var id int64
	for _, r := range tr.Records {
		if r.Write {
			continue
		}
		// A negative record device survives the modulo; reject it here
		// rather than letting flashsim panic deep in its event loop.
		dev := r.Device % devices
		if dev < 0 {
			return nil, fmt.Errorf("core: flashsim backend device %d out of range [0,%d)", dev, devices)
		}
		id++
		arr.Submit(flashsim.Request{ID: id, Arrival: r.Arrival, Module: dev, Block: r.Block})
	}
	rep := &Report{Name: tr.Name + " (original)"}
	n := tr.NumIntervals()
	respI := make([]stats.Summary, n)
	var respAll stats.Summary
	for _, c := range arr.Run() {
		iv := 0
		if tr.IntervalMS > 0 {
			iv = int(c.Arrival / tr.IntervalMS)
		}
		if iv >= n {
			iv = n - 1
		}
		respI[iv].Add(c.Response())
		respAll.Add(c.Response())
	}
	for i := 0; i < n; i++ {
		rep.Intervals = append(rep.Intervals, IntervalReport{
			Index:       i,
			Requests:    respI[i].N(),
			AvgResponse: respI[i].Mean(),
			MaxResponse: respI[i].Max(),
		})
	}
	rep.Requests = respAll.N()
	rep.AvgResponse = respAll.Mean()
	rep.MaxResponse = respAll.Max()
	return rep, nil
}
