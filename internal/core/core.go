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
//     ReplayOriginal replays the unadmitted "original stand" on the same
//     FCFS device timeline (retrieval.Online) the engine schedules on.
//
// One admission/retrieval engine implements the submit paths (engine.go)
// in one configuration; System is its public face. Submit, SubmitWrite,
// SubmitBatch and SubmitBurst are the online API the examples and the
// network layer use; ReplayTrace (online retrieval) and ReplayAligned
// (interval-aligned) drive a whole trace through the pipeline and produce
// the per-interval report behind the paper's Figs 8–12, in the one tally
// ReplayOriginal fills too.
package core

import (
	"fmt"
	"sort"

	"flashqos/internal/admission"
	"flashqos/internal/blockmap"
	"flashqos/internal/decluster"
	"flashqos/internal/design"
	"flashqos/internal/fim"
	"flashqos/internal/retrieval"
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
	// MinSupport of 0 keeps the default (2); set DisableFIM to disable
	// mining and use the modulo mapping only.
	FIMMinSupport int
	DisableFIM    bool
	// Table optionally injects a precomputed optimal-retrieval probability
	// table for statistical QoS; when nil and Epsilon > 0, one is sampled
	// at construction with sampling's default 20000 trials per size.
	Table *sampling.Table
	Seed  int64
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
// goroutine at once; Remap, AttachHealth, ReplayTrace and
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

// Table returns the P_k table statistical admission prices against: the
// injected Config.Table, or the one sampled at construction. It is nil
// for a deterministic system unless one was injected.
func (s *System) Table() *sampling.Table { return s.cfg.Table }

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
func (s *System) WindowCount(w int64) int { return s.ledger.Count(w) }

// MaxWindowCount returns the largest admitted count recorded for any
// tracked window — after quiescence it must never exceed S in
// deterministic mode (test hook; statistical mode over-admits by design).
func (s *System) MaxWindowCount() int {
	_, m := s.ledger.Census()
	return m
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
}

// Report is the result of a trace replay. The embedded IntervalReport
// holds the overall aggregates, over every read of the trace.
type Report struct {
	Name      string
	Intervals []IntervalReport
	IntervalReport
	Utilization float64 // mean device busy fraction over the replayed span
	// Write extension accounting (reads populate the fields above, keeping
	// the paper's read-only figures comparable).
	WriteRequests int
	WriteAvgResp  float64
}

// scope accumulates the reads of one report scope: one reporting interval,
// or the whole trace.
type scope struct {
	resp, delay stats.Summary
	rejected    int
}

func (sc *scope) add(out Outcome) {
	if out.Rejected {
		sc.rejected++
		return
	}
	sc.resp.Add(out.Response())
	if out.Delayed {
		sc.delay.Add(out.Delay)
	}
}

func (sc *scope) report(index int) IntervalReport {
	ir := IntervalReport{
		Index:       index,
		Requests:    sc.resp.N() + sc.rejected,
		Rejected:    sc.rejected,
		AvgResponse: sc.resp.Mean(),
		MaxResponse: sc.resp.Max(),
		AvgDelay:    sc.delay.Mean(),
	}
	if ir.Requests > 0 {
		ir.DelayedPct = 100 * float64(sc.delay.N()) / float64(ir.Requests)
		ir.AvgDelayAll = sc.delay.Mean() * float64(sc.delay.N()) / float64(ir.Requests)
	}
	return ir
}

// tally is the accumulator every replay shares: one scope per reporting
// interval and one over the whole trace.
type tally struct {
	intervals []scope
	all       scope
}

func newTally(intervals int) *tally { return &tally{intervals: make([]scope, intervals)} }

// add records a read's outcome under reporting interval iv; an arrival past
// the last interval counts in the last one.
func (t *tally) add(iv int, out Outcome) {
	if iv >= len(t.intervals) {
		iv = len(t.intervals) - 1
	}
	if iv >= 0 {
		t.intervals[iv].add(out)
	}
	t.all.add(out)
}

func (t *tally) report(name string) *Report {
	rep := &Report{Name: name, IntervalReport: t.all.report(0)}
	for i := range t.intervals {
		rep.Intervals = append(rep.Intervals, t.intervals[i].report(i))
	}
	return rep
}

// ReplayTrace drives a trace through the pipeline: before each reporting
// interval the previous interval is mined and the block mapping rebuilt
// (§V-D: "we use the trace one previous than the current interval for
// mining"); every read request then passes admission and retrieval.
func (s *System) ReplayTrace(tr *trace.Trace) *Report {
	tr.Sort() // replay is deterministic in arrival order
	n := tr.NumIntervals()
	t := newTally(n)
	var writes stats.Summary
	for i := 0; i < n; i++ {
		if i > 0 {
			s.Remap(tr.Interval(i - 1))
		}
		for _, r := range tr.Interval(i) {
			if !r.Write {
				t.add(i, s.Submit(r.Arrival, r.Block))
			} else if out := s.SubmitWrite(r.Arrival, r.Block); !out.Rejected {
				writes.Add(out.Response())
			}
		}
	}
	rep := t.report(tr.Name)
	if n > 0 && tr.IntervalMS > 0 {
		rep.Utilization = s.sched.Utilization(float64(n) * tr.IntervalMS)
	}
	rep.WriteRequests = writes.N()
	rep.WriteAvgResp = writes.Mean()
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
	n := tr.NumIntervals()
	t := newTally(n)

	type pending struct {
		arrival  float64
		interval int
		replicas []int
	}
	var backlog []pending

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
		for i, c := range s.sched.IntervalBatch(at, replicas) {
			d := at - now[i].arrival
			t.add(now[i].interval, Outcome{Admitted: at, Finish: c.Finish, Delay: d, Delayed: d > delayTol})
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
				s.Remap(tr.Interval(curIv - 1))
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
			p := pending{arrival: r.Arrival, interval: tr.IntervalOf(r), replicas: s.Replicas(r.Block)}
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
	return t.report(tr.Name)
}

// ReplayOriginal replays a trace "as stated" (the paper's original stand,
// §V-D): every read goes to the device named in the trace record, FCFS in
// arrival order, with no admission control. It runs on the engine's own
// device timeline, retrieval.Online, with the record's device as the only
// replica, so the response times include queueing delay. A serviceMS <= 0
// uses flashsim's default read latency.
func ReplayOriginal(tr *trace.Trace, devices int, serviceMS float64) (*Report, error) {
	if devices < 1 {
		return nil, fmt.Errorf("core: devices must be >= 1")
	}
	serviceMS, _ = normalizeService(MemBackend{}, serviceMS, 0)
	tr.Sort() // a device serves its queue in arrival order
	sched := retrieval.NewOnline(devices, serviceMS)
	type served struct {
		interval int
		out      Outcome
	}
	var done []served
	for _, r := range tr.Records {
		if r.Write {
			continue
		}
		// A negative record device survives the modulo; reject it here
		// rather than letting the scheduler index out of range.
		dev := r.Device % devices
		if dev < 0 {
			return nil, fmt.Errorf("core: device %d out of range [0,%d)", dev, devices)
		}
		c := sched.Submit(r.Arrival, []int{dev})
		done = append(done, served{tr.IntervalOf(r), Outcome{Admitted: r.Arrival, Finish: c.Finish}})
	}
	// Tally in finish order, the order a device array reports completions
	// in: each mean depends on its summation order in the last bit.
	sort.SliceStable(done, func(i, j int) bool { return done[i].out.Finish < done[j].out.Finish })
	t := newTally(tr.NumIntervals())
	for _, d := range done {
		t.add(d.interval, d.out)
	}
	return t.report(tr.Name + " (original)"), nil
}
