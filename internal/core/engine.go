package core

import (
	"fmt"
	"math"
	"sync"

	"flashqos/internal/admission"
	"flashqos/internal/blockmap"
	"flashqos/internal/decluster"
	"flashqos/internal/design"
	"flashqos/internal/health"
	"flashqos/internal/retrieval"
	"flashqos/internal/sampling"
)

// engine is the one admission/retrieval implementation, in the one
// configuration every System runs: per-window admission counts in the
// sharded CAS ledger with its frontier hint (ledger.go), a short mutex
// around the device scheduler, lock-free statistical decisions against a
// published snapshot (statgate.go). There used to be a second, sequential
// configuration (plain map ledger, no lock, no hint); it was slower on one
// goroutine and O(backlog) per request under sustained overload, so it was
// deleted rather than kept as an option (DESIGN.md §9).
//
// The submit paths are reserve-first: a slot is claimed in the ledger
// before the scheduler is consulted and released again when no replica is
// usable at the reserved time.
type engine struct {
	// The admission scan reads these on every request; they are packed
	// first so a shard's per-request engine state spans as few cache
	// lines as possible (K engines compete for the same cache).
	alloc      *decluster.DesignTheoretic
	mapper     *blockmap.Mapper
	sched      *retrieval.Online
	ledger     *shardedLedger
	invT       float64 // 1/IntervalMS, hoisted off the admission hot loop
	intervalMS float64 // cfg.IntervalMS, hoisted likewise
	deviceBase int     // cfg.DeviceBase, hoisted likewise
	s          int     // admission limit S(M)

	stat    *statGate         // nil for deterministic (see statgate.go)
	health  *health.Monitor   // nil unless AttachHealth was called
	tenants *admission.MClock // per-tenant gate; snapshot nil until configured
	// schedMu guards sched. Device state (per-device next-free times) is
	// the one genuinely global resource: picking the earliest-finishing
	// replica and marking it busy must be atomic across devices.
	schedMu sync.Mutex
	cfg     Config
}

// newEngine builds the engine from the config.
func newEngine(cfg Config) (*engine, error) {
	cfg.applyDefaults()
	if cfg.DeviceBase < 0 {
		return nil, fmt.Errorf("core: negative DeviceBase %d", cfg.DeviceBase)
	}
	d := cfg.Design
	alloc := cfg.Allocator
	if alloc != nil {
		if d != nil && alloc.Design() != d {
			return nil, fmt.Errorf("core: injected allocator built over a different design")
		}
		d = alloc.Design()
	} else {
		if d == nil {
			var err error
			d, err = design.ForParams(cfg.N, cfg.C)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
		var err error
		alloc, err = decluster.NewDesignTheoretic(d)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.M < 1 {
		return nil, fmt.Errorf("core: M must be >= 1, got %d", cfg.M)
	}
	if cfg.IntervalMS < cfg.ServiceMS {
		return nil, fmt.Errorf("core: interval %g ms shorter than service time %g ms", cfg.IntervalMS, cfg.ServiceMS)
	}
	mapper, err := blockmap.NewMapper(alloc.Rows())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &engine{
		cfg:        cfg,
		invT:       1 / cfg.IntervalMS,
		intervalMS: cfg.IntervalMS,
		deviceBase: cfg.DeviceBase,
		alloc:      alloc,
		mapper:     mapper,
		sched:      retrieval.NewOnline(d.N, cfg.ServiceMS),
		s:          d.S(cfg.M),
		ledger:     new(shardedLedger),
	}
	// The tenant gate partitions windows of the design capacity S; it
	// stays off (nil snapshot, one untaken branch per tenanted request)
	// until SetTenants installs a policy.
	e.tenants, err = admission.NewMClock(e.s)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Epsilon > 0 {
		tab := cfg.Table
		if tab == nil {
			tab, err = sampling.Estimate(alloc, sampling.Options{MaxK: 2*d.N + e.s, Seed: cfg.Seed + 1})
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			e.cfg.Table = tab
		}
		stat, err := admission.NewStatistical(e.s, cfg.Epsilon, tab)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		e.stat = newStatGate(stat)
	}
	return e, nil
}

// Replicas returns the devices storing a data block's copies, going through
// the FIM/modulo design-block mapping.
func (e *engine) Replicas(dataBlock int64) []int {
	return e.alloc.Replicas(e.mapper.DesignBlock(dataBlock))
}

const delayTol = 1e-9

// window returns the T-window index of a time. The small bias keeps times
// computed as float64(w)*T — window starts — in window w despite rounding;
// without it, bumping a delayed request to "the start of window w+1" can
// floor back into window w and loop forever.
func (e *engine) window(t float64) int64 {
	return int64(math.Floor(t*e.invT + windowEps))
}

// windowEps absorbs float rounding in window arithmetic (in units of
// windows; times span < 1e9 windows, where float64 error is << 1e-6).
const windowEps = 1e-6

// startFrom applies the frontier hint: admission scanning begins at the
// hint window when it is ahead of the arrival. The hint only skips windows
// where admission is provably impossible, so the scan converges to the same
// admit time either way.
//
// Deterministic mode uses the ledger frontier ("full at the limit" is
// final). Statistical mode may admit past the deterministic limit, which
// voids that premise, so it keeps its own frontier in the gate: windows
// full at the limit AND refused by the published Q snapshot
// (statGate.noteDead), where refusal is final per window. Both frontiers
// serve writes too — a window that cannot take one more read cannot take a
// c-slot write either.
func (e *engine) startFrom(arrival float64) float64 {
	h := e.ledger.frontier()
	if e.stat != nil {
		h = e.stat.frontier()
	}
	if h > e.window(arrival) {
		if t := float64(h) * e.intervalMS; t > arrival {
			return t
		}
	}
	return arrival
}

// deadBefore returns the first window that could still admit a request by
// the device criterion: the window holding the earliest next-free instant
// across ALL devices. Device next-free times only move forward, so every
// window strictly below stays unadmittable forever. Must be called with
// schedMu held.
func (e *engine) deadBefore() int64 {
	minAll := math.Inf(1)
	for d := 0; d < e.sched.Devices(); d++ {
		if nf := e.sched.NextFree(d); nf < minAll {
			minAll = nf
		}
	}
	return e.window(minAll)
}

// hinted reports whether the ledger's frontier hint is consulted and
// maintained: in deterministic mode only, where "full at the limit" is
// final (statistical mode keeps its own frontier in the gate; see
// startFrom).
func (e *engine) hinted() bool { return e.stat == nil }

// gate runs the arrival-side tenant checks against the policy snapshot a
// submission decides under: unknown tenants and tenants over their
// per-window arrival limit are finished immediately (done = true) without
// touching the ledger. A nil snap — untenanted request, or no policy
// installed — passes through at the cost of one predictable branch.
func (e *engine) gate(snap *admission.MCSnap, arrival float64, tenant int32) (out Outcome, done bool) {
	if snap == nil {
		return Outcome{}, false
	}
	switch snap.NoteArrival(tenant, e.window(arrival)) {
	case admission.Unknown:
		// The slot was deleted between wire validation and submission;
		// reject defensively rather than fall back to untenanted service.
		return Outcome{Rejected: true, Admitted: arrival, Tenant: tenant}, true
	case admission.OverLimit:
		return Outcome{Rejected: true, OverLimit: true, Admitted: arrival, Tenant: tenant}, true
	}
	return Outcome{}, false
}

// burst is what one submission call carries across its requests —
// simultaneous arrivals sharing one timestamp — so that a run of reads pays
// one availability snapshot, one tenant-policy snapshot, one grouped ledger
// reservation per window and one scheduler lock round trip instead of one
// of each per request. A single Submit is a burst of one. None of it is
// visible in the outcomes (DESIGN.md §12, golden_burst_seed42.txt):
//
//   - The scan never reads a window's count in deterministic mode, only
//     reserve/release deltas, so unconsumed credit held in a window is
//     invisible to it: credit is capped so consumed+credit never exceeds
//     the limit, meaning a credit hit succeeds in exactly the states a
//     one-slot reservation would, and reserveUpTo returns 0 in exactly the
//     states it would fail.
//   - Statistical mode does read counts (wouldAdmit against the live
//     window count), so it reserves one slot at a time: credit stays 0.
//     It also gives the scheduler lock back after every device check, as
//     statistical submissions always have: between two checks the scan
//     evaluates the Q snapshot (a histogram walk) and may fold closed
//     windows — too long to sit inside the one lock every connection of
//     the shard needs.
//   - One availability snapshot per burst: single-threaded this is
//     indistinguishable from per-request snapshots; under concurrency a
//     mask flip or TENANT SET lands on a burst boundary instead of a
//     request boundary.
type burst struct {
	mask   uint64
	limit  int  // S, or S' under a degraded mask
	masked bool // a health monitor is attached

	// snap is the tenant policy, loaded at the first tenanted request so
	// tenant-less bursts pay no atomic load.
	snap       *admission.MCSnap
	snapLoaded bool

	curW   int64 // window holding unconsumed credit
	credit int   // reserved-but-unconsumed slots in curW
	locked bool  // schedMu held (deterministic mode: across the read run)
	left   int   // requests not yet admitted, the current one included
}

// begin opens a burst of n requests.
func (e *engine) begin(n int) burst {
	mask, limit, masked := e.maskLimit()
	return burst{mask: mask, limit: limit, masked: masked, left: n}
}

// unlock drops the scheduler lock after a device check in statistical
// mode; a deterministic burst keeps it across its read run.
func (e *engine) unlock(b *burst) {
	if e.stat != nil {
		e.schedMu.Unlock()
		b.locked = false
	}
}

// settle returns unconsumed credit and drops the scheduler lock: what must
// happen before anything that reads the true window count or takes its own
// locks (a write), and when the burst ends.
func (e *engine) settle(b *burst) {
	if b.credit > 0 {
		e.ledger.release(b.curW, b.credit)
		b.credit = 0
	}
	if b.locked {
		e.schedMu.Unlock()
		b.locked = false
	}
}

// submit runs one block read through admission control and online
// retrieval. tenant is the 1-based tenant index the request carries
// (0 = untenanted).
func (e *engine) submit(arrival float64, dataBlock int64, tenant int32) (out Outcome) {
	b := e.begin(1)
	e.admitRead(&b, arrival, dataBlock, tenant, &out)
	e.settle(&b)
	e.ledger.RaiseFloor(e.window(arrival)) // after admitRead's fold
	return out
}

// submitBurst admits reqs — simultaneous arrivals sharing one timestamp —
// in input order, writing outcome i into outs[i] (len(outs) == len(reqs)).
// Writes drop the burst's credit and lock first: a c-slot reservation must
// see the true window count, and submitWrite takes its own snapshots and
// locks.
func (e *engine) submitBurst(arrival float64, reqs []BurstReq, outs []Outcome) {
	b := e.begin(len(reqs))
	for i := range reqs {
		if r := &reqs[i]; r.Write {
			e.settle(&b)
			outs[i] = e.submitWrite(arrival, r.Block, r.Tenant)
		} else {
			e.admitRead(&b, arrival, r.Block, r.Tenant, &outs[i])
		}
		b.left--
	}
	e.settle(&b)
	e.ledger.RaiseFloor(e.window(arrival)) // after admitRead's folds
}

// admitRead is the read-admission scan — the only one. Tenanted requests
// pass the mClock gate (arrival limit, then a per-window cap acquisition
// in front of every ledger reservation) before consuming any S-bound
// credit; then a slot is reserved in the first window with room, and the
// request is served when one of its available replicas is idle at the
// reserved time, or moved to the instant one frees up. Statistical mode
// may over-admit at both points (§III-B). The outcome is written in place
// (out may hold anything on entry): a burst fills its result slice with no
// copy per request.
func (e *engine) admitRead(b *burst, arrival float64, dataBlock int64, tenant int32, out *Outcome) {
	if e.stat != nil {
		e.stat.closeUpTo(e.window(arrival), e.ledger)
	}
	var snap *admission.MCSnap
	if tenant != 0 {
		if !b.snapLoaded {
			b.snap, b.snapLoaded = e.tenants.Snapshot(), true
		}
		snap = b.snap
	}
	if gout, done := e.gate(snap, arrival, tenant); done {
		*out = gout
		return
	}
	replicas := e.Replicas(dataBlock)
	if b.masked && aliveReplicas(replicas, b.mask) == 0 {
		if snap != nil {
			snap.NoteRejected(tenant)
		}
		*out = Outcome{Rejected: true, Unavailable: true, Admitted: arrival, Tenant: tenant}
		return
	}
	if snap != nil && snap.Cap(tenant) < 1 {
		// A zero-cap tenant can never acquire a slot in any window; reject
		// rather than walk windows forever.
		snap.NoteRejected(tenant)
		*out = Outcome{Rejected: true, Admitted: arrival, Tenant: tenant}
		return
	}
	group := b.left
	if e.stat != nil {
		group = 1
	}
	tAdm := e.startFrom(arrival)
	// w tracks window(tAdm) across the scan: advancing to the next window
	// is an integer increment (windowEps guarantees window(float64(w+1)·T)
	// is exactly w+1), so only scheduler-driven jumps recompute it.
	w := e.window(tAdm)
	if snap != nil {
		snap.RaiseFrontier(tenant, w)
	}
	for {
		// Tenant cap first: a tenant over its window share consumes no
		// ledger credit (and strands none of the burst's). The walk starts
		// at the tenant's own scan frontier (MCSnap.Acquire): a cap miss
		// cannot move the global frontier, since the window may still have
		// room for other tenants.
		tenantReserved := false
		if snap != nil {
			at, res, _ := snap.Acquire(tenant, w, 1) // cap >= 1 checked above
			if at != w {
				w, tAdm = at, float64(at)*e.intervalMS
			}
			tenantReserved = res
		}
		if b.credit > 0 && w == b.curW {
			// The slot was reserved with the burst's one counter update for
			// this window.
			b.credit--
		} else {
			if b.credit > 0 {
				// The scan moved to another window; stranded credit goes
				// back before the new grouped reservation.
				e.ledger.release(b.curW, b.credit)
				b.credit = 0
			}
			got := e.ledger.reserveUpTo(w, group, b.limit)
			if got == 0 {
				// Window w is full under the snapshot limit.
				if e.stat != nil {
					if e.stat.wouldAdmit(e.ledger.Count(w) + 1) {
						// Statistical path: admit past the deterministic limit;
						// the request may queue behind busy replicas (§III-B).
						e.ledger.add(w, 1)
						e.place(b, snap, arrival, tAdm, replicas, tenant, false, out)
						return
					}
					// Full and refused by the published snapshot: closed
					// for good, later scans skip it (statGate).
					e.stat.noteDead(w)
				}
				if snap != nil {
					// Give the tenant slot back; a reserved slot the global
					// ledger would not honor is a reservation deficit.
					snap.Release(tenant, w, 1)
					if tenantReserved {
						snap.NoteDeficit(tenant)
					}
				}
				if e.hinted() {
					e.ledger.noteFull(w + 1)
				}
				w++
				tAdm = float64(w) * e.intervalMS // next window
				continue
			}
			b.curW, b.credit = w, got-1
		}
		// Slot held in w. The guaranteed path also needs an idle available
		// replica at tAdm so the response stays at the service time.
		if !b.locked {
			e.schedMu.Lock()
			b.locked = true
		}
		tFree := math.Inf(1)
		for _, d := range replicas {
			if b.masked && b.mask&(1<<uint(d)) == 0 {
				continue
			}
			if nf := e.sched.NextFree(d); nf < tFree {
				tFree = nf
			}
		}
		if tFree <= tAdm {
			e.place(b, snap, arrival, tAdm, replicas, tenant, true, out)
			return
		}
		if e.stat != nil && e.stat.wouldAdmit(e.ledger.Count(w)) {
			// Statistical path with the reservation kept: every replica is
			// busy, but the estimator accepts the risk and the request
			// queues. count(w) already includes this request's slot.
			e.place(b, snap, arrival, tAdm, replicas, tenant, false, out)
			return
		}
		// No replica idle at the reserved time: give the slot back (and
		// the tenant slot with it — no deficit, nothing was refused) and
		// retry at the earliest instant one frees up (strictly later, so
		// the loop always progresses). Windows proven dead by device
		// exhaustion are excluded from future scans so sustained overload
		// stays O(1) per request instead of crawling the backlog.
		e.ledger.release(w, 1)
		if snap != nil {
			snap.Release(tenant, w, 1)
		}
		if e.hinted() {
			e.ledger.noteDeadBefore(e.deadBefore())
		}
		e.unlock(b)
		tAdm = tFree
		w = e.window(tAdm)
	}
}

// place schedules a request whose admission slot is already charged to the
// ledger on its best available replica at tAdm — taking the scheduler lock
// for the burst if the scan has not yet — and fills in the outcome, tenant
// tag included (bumping the tenant's admitted gauge when the gate is on).
func (e *engine) place(b *burst, snap *admission.MCSnap, arrival, tAdm float64, replicas []int, tenant int32, requireIdle bool, out *Outcome) {
	if !b.locked {
		e.schedMu.Lock()
		b.locked = true
	}
	var c retrieval.Completion
	if b.masked {
		var ok bool
		if c, ok = e.sched.SubmitMasked(tAdm, replicas, b.mask); !ok {
			panic("core: admit with no available replica") // caller checked
		}
	} else {
		c = e.sched.Submit(tAdm, replicas)
	}
	e.unlock(b)
	if requireIdle && c.Start > tAdm+delayTol {
		panic("core: guaranteed-path request had to queue") // invariant
	}
	delay := tAdm - arrival
	if delay < 0 {
		delay = 0
	}
	if snap != nil {
		snap.NoteAdmitted(tenant)
	}
	*out = Outcome{
		Admitted: tAdm,
		Device:   e.deviceBase + c.Device,
		Start:    c.Start,
		Finish:   c.Finish,
		Delay:    delay,
		Delayed:  delay > delayTol,
		Tenant:   tenant,
	}
}

// submitWrite schedules a block write: c admission slots in one window and
// every available replica device idle simultaneously — a different
// algorithm from the read scan, not a variant of it. A tenanted write
// charges one arrival against the tenant's limit and c usage slots
// (all-or-nothing) against its window cap.
func (e *engine) submitWrite(arrival float64, dataBlock int64, tenant int32) Outcome {
	replicas := e.Replicas(dataBlock)
	if e.stat != nil {
		e.stat.closeUpTo(e.window(arrival), e.ledger)
	}
	e.ledger.RaiseFloor(e.window(arrival))
	var snap *admission.MCSnap
	if tenant != 0 {
		snap = e.tenants.Snapshot()
	}
	if out, done := e.gate(snap, arrival, tenant); done {
		return out
	}
	mask, limit, masked := e.maskLimit()
	c := len(replicas)
	if masked {
		if c = aliveReplicas(replicas, mask); c == 0 {
			if snap != nil {
				snap.NoteRejected(tenant)
			}
			return Outcome{Rejected: true, Unavailable: true, Admitted: arrival, Tenant: tenant}
		}
	}
	if snap != nil && snap.Cap(tenant) < c {
		// The tenant's window share can never fit a c-slot write; reject
		// rather than walk windows forever.
		snap.NoteRejected(tenant)
		return Outcome{Rejected: true, Admitted: arrival, Tenant: tenant}
	}
	tAdm := e.startFrom(arrival)
	w := e.window(tAdm)
	if snap != nil {
		snap.RaiseFrontier(tenant, w)
	}
	for {
		tenantReserved := false
		if snap != nil {
			at, res, _ := snap.Acquire(tenant, w, int32(c)) // cap >= c checked above
			if at != w {
				w, tAdm = at, float64(at)*e.intervalMS
			}
			tenantReserved = res
		}
		if !e.ledger.tryReserve(w, c, limit) {
			if snap != nil {
				snap.Release(tenant, w, int32(c))
				if tenantReserved {
					snap.NoteDeficit(tenant)
				}
			}
			// The window may still have room for smaller requests, so the
			// frontier (which serves single-slot reads too) is not advanced.
			w++
			tAdm = float64(w) * e.intervalMS
			continue
		}
		// All available replicas must be free simultaneously.
		e.schedMu.Lock()
		tAllFree := tAdm
		firstDev := -1
		for _, d := range replicas {
			if masked && mask&(1<<uint(d)) == 0 {
				continue
			}
			if firstDev < 0 {
				firstDev = d
			}
			if nf := e.sched.NextFree(d); nf > tAllFree {
				tAllFree = nf
			}
		}
		if tAllFree <= tAdm {
			finish := 0.0
			for _, d := range replicas {
				if masked && mask&(1<<uint(d)) == 0 {
					continue
				}
				cmp := e.sched.SubmitFor(tAdm, []int{d}, e.cfg.WriteServiceMS)
				if cmp.Finish > finish {
					finish = cmp.Finish
				}
			}
			e.schedMu.Unlock()
			delay := tAdm - arrival
			if delay < 0 {
				delay = 0
			}
			if snap != nil {
				snap.NoteAdmitted(tenant)
			}
			return Outcome{
				Admitted: tAdm,
				Device:   e.deviceBase + firstDev,
				Start:    tAdm,
				Finish:   finish,
				Delay:    delay,
				Delayed:  delay > delayTol,
				Tenant:   tenant,
			}
		}
		var dead int64
		if e.hinted() {
			dead = e.deadBefore()
		}
		e.schedMu.Unlock()
		e.ledger.release(w, c)
		if snap != nil {
			snap.Release(tenant, w, int32(c))
		}
		if e.hinted() {
			e.ledger.noteDeadBefore(dead)
		}
		tAdm = tAllFree
		w = e.window(tAdm)
	}
}

// submitBatch admits a set of simultaneous block requests jointly — the
// §III interval model, the paper's optimal joint retrieval rather than the
// FCFS-online scan. Batches are untenanted: per-tenant window caps would
// fragment the one-window joint assignment. A nil scratch allocates fresh
// result and working buffers (safe to retain); a non-nil scratch makes the
// steady state allocation-free, with the returned slice valid until its
// next use.
func (e *engine) submitBatch(arrival float64, blocks []int64, sc *BatchScratch) []Outcome {
	if len(blocks) == 0 {
		return nil
	}
	if sc == nil {
		sc = &BatchScratch{}
	}
	if e.stat != nil {
		e.stat.closeUpTo(e.window(arrival), e.ledger)
	}
	e.ledger.RaiseFloor(e.window(arrival))
	mask, limit, masked := e.maskLimit()
	w := e.window(arrival)
	// Reserve up to the window's remaining capacity.
	take := e.ledger.reserveUpTo(w, len(blocks), limit)
	out := sc.outcomes(len(blocks))
	if take > 0 {
		// The joint assignment runs over the blocks with a usable replica;
		// idx maps its entries back to input positions. Under a mask the
		// alive lists live in one flat buffer sized up front, so the
		// sub-slices stay valid as it fills.
		live, idx := sc.replicaBuf(take)[:0], sc.idxBuf(take)
		var alive []int
		if masked {
			alive = sc.aliveBuf(take, e.alloc.Copies())
		}
		for i := 0; i < take; i++ {
			r := e.Replicas(blocks[i])
			if masked {
				start := len(alive)
				for _, d := range r {
					if mask&(1<<uint(d)) != 0 {
						alive = append(alive, d)
					}
				}
				if len(alive) == start {
					out[i] = Outcome{Rejected: true, Unavailable: true, Admitted: arrival}
					continue
				}
				r = alive[start:len(alive):len(alive)]
			}
			live = append(live, r)
			idx = append(idx, i)
		}
		if unavailable := take - len(live); unavailable > 0 {
			// Unavailable blocks consume no budget.
			e.ledger.release(w, unavailable)
		}
		e.schedMu.Lock()
		cs := e.sched.SubmitBatchInto(arrival, live, sc.comps)
		e.schedMu.Unlock()
		sc.comps = cs
		for j, c := range cs {
			out[idx[j]] = Outcome{
				Admitted: arrival,
				Device:   e.deviceBase + c.Device,
				Start:    c.Start,
				Finish:   c.Finish,
			}
		}
	}
	// Overflow: per-request path (next windows).
	for i := take; i < len(blocks); i++ {
		out[i] = e.submit(arrival, blocks[i], 0)
	}
	return out
}
