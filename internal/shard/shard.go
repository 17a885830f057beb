// Package shard scales the replication-based QoS framework past a single
// (N, c, 1) array: an Array hash-partitions the data-block space across K
// independent QoS engines, each with its own block design, interval
// ledger, device scheduler, and health tracker. The per-interval guarantee
// composes additively — every shard still admits at most its own S(M)
// requests per T-window onto its own N devices, so the aggregate array
// sustains K·S guaranteed requests per interval with K·N devices, and a
// device failure degrades only the shard that owns it (the other shards
// keep the full S).
//
// Devices are numbered globally: shard i's local device d is global device
// i·N + d. Submit outcomes, MAP responses, and health admin verbs all
// speak global ids; the translation is pure arithmetic, so the submit hot
// path stays zero-allocation.
package shard

import (
	"fmt"

	"flashqos/internal/core"
	"flashqos/internal/health"
)

// Array fans one Submit/SubmitWrite/SubmitBatch/SubmitBurst surface out
// across K independent QoS engines. All methods are safe for concurrent
// use (every core.System is).
type Array struct {
	systems []*core.System
	mons    []*health.Monitor // non-nil entries after NewHealthMonitors
	devsPer int
	// tenants is the canonical tenant slot table, mirrored onto every
	// shard's admission gate (see tenant.go).
	tenants tenantState
}

// New builds an Array of k independent engines, each configured from cfg.
// The shards share the configuration (and so the design, guarantee and
// sampled table) but no state: every shard owns its ledger, scheduler and
// mapper. Shard i is built with DeviceBase i·N (overriding any base in
// cfg), so outcomes carry global device ids straight out of the engine.
func New(k int, cfg core.Config) (*Array, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: need >= 1 shard, got %d", k)
	}
	systems := make([]*core.System, k)
	for i := range systems {
		cfg.DeviceBase = 0
		if i > 0 {
			// Later shards reuse shard 0's immutable allocator (one shared
			// replica table instead of k cache-competing copies) and P_k
			// table (sampled once per array, not once per shard), and
			// number their devices from their own global base.
			cfg.DeviceBase = i * systems[0].Design().N
			cfg.Allocator = systems[0].Allocator()
			cfg.Design = systems[0].Design()
			cfg.Table = systems[0].Table()
		}
		sys, err := core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		systems[i] = sys
	}
	return FromSystems(systems...)
}

// FromSystems builds an Array over already-constructed systems. All
// systems must span the same number of devices — the global device
// numbering depends on it — and system i must number its devices from its
// own global base i·N (core.Config.DeviceBase), so its outcomes already
// carry global ids; a single system therefore needs no base at all.
func FromSystems(systems ...*core.System) (*Array, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("shard: need >= 1 system")
	}
	a := &Array{
		systems: systems,
		mons:    make([]*health.Monitor, len(systems)),
		devsPer: systems[0].Design().N,
	}
	for i, sys := range systems {
		if n := sys.Design().N; n != a.devsPer {
			return nil, fmt.Errorf("shard: shard %d spans %d devices, shard 0 spans %d", i, n, a.devsPer)
		}
		if base := sys.DeviceBase(); base != i*a.devsPer {
			return nil, fmt.Errorf("shard: shard %d has DeviceBase %d, want %d", i, base, i*a.devsPer)
		}
		a.mons[i] = sys.Health()
	}
	return a, nil
}

// NewHealthMonitors attaches one device-health monitor per shard (see
// core.System.NewHealthMonitor): detector thresholds and callbacks come
// from over, the device count, availability guard, latency baseline and
// rebuild work lists from each shard's design. Call before serving.
func (a *Array) NewHealthMonitors(rebuildRate float64, over health.Config) error {
	return a.NewHealthMonitorsWithCopy(rebuildRate, over, nil)
}

// NewHealthMonitorsWithCopy is NewHealthMonitors with a rebuild copy
// callback: each shard's rebuilder calls copy(shard, dev, bucket, kind)
// for every scheduled repair unit (dev and bucket in shard-local terms),
// which is how a storage engine moves real payloads during
// reprotect/resilver. copy runs from Monitor.Step with the shard
// monitor's transition lock released, so it may perform blocking payload
// I/O without stalling the health detectors. A nil copy matches
// NewHealthMonitors.
func (a *Array) NewHealthMonitorsWithCopy(rebuildRate float64, over health.Config, copy func(shard, dev, bucket int, kind health.RebuildKind)) error {
	for i, sys := range a.systems {
		o := over
		if copy != nil {
			sh := i
			o.Rebuild.Copy = func(dev, bucket int, kind health.RebuildKind) {
				copy(sh, dev, bucket, kind)
			}
		}
		mon, err := sys.NewHealthMonitor(rebuildRate, o)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		a.mons[i] = mon
	}
	return nil
}

// Shards returns the number of shards K.
func (a *Array) Shards() int { return len(a.systems) }

// DevicesPerShard returns N, the device count of each shard's design.
func (a *Array) DevicesPerShard() int { return a.devsPer }

// Devices returns the global device count K·N.
func (a *Array) Devices() int { return len(a.systems) * a.devsPer }

// System returns shard i's engine.
func (a *Array) System(i int) *core.System { return a.systems[i] }

// Monitor returns shard i's health monitor (nil when none is attached).
func (a *Array) Monitor(i int) *health.Monitor { return a.mons[i] }

// HasHealth reports whether every shard has a health monitor attached —
// the condition for serving global health admin operations.
func (a *Array) HasHealth() bool {
	for _, m := range a.mons {
		if m == nil {
			return false
		}
	}
	return true
}

// GlobalDevice translates shard i's local device to its global id.
func (a *Array) GlobalDevice(shard, local int) int { return shard*a.devsPer + local }

// DeviceShard translates a global device id to (shard, local device).
func (a *Array) DeviceShard(global int) (shard, local int, ok bool) {
	if global < 0 || global >= a.Devices() {
		return 0, 0, false
	}
	return global / a.devsPer, global % a.devsPer, true
}

// splitmix64's finalizer: a full-avalanche multiplicative hash, so block
// ids that arrive in arithmetic progressions (the common trace shape)
// still spread uniformly across shards.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Route returns the partition owning block among n equal partitions — the
// hash-partitioning rule shared by in-process sharding (ShardOf) and the
// qosproxy router tier, so any layer can predict block placement. The
// range reduction is a multiply-shift on the hash's high 32 bits
// (Lemire's fastrange) rather than a modulo: the hash is full-avalanche,
// so the high bits are as uniform as the low ones, and the hot submit
// partition loop avoids a hardware divide per request.
func Route(block int64, n int) int {
	if n <= 1 {
		return 0
	}
	return int((mix(uint64(block)) >> 32) * uint64(n) >> 32)
}

// ShardOf returns the shard owning a data block.
func (a *Array) ShardOf(block int64) int {
	return Route(block, len(a.systems))
}

// Submit routes one block read to its owning shard. The outcome's Device
// is in the global numbering. Zero allocations in steady state (the
// pinned sharded hot path).
func (a *Array) Submit(arrival float64, block int64) core.Outcome {
	return a.systems[a.ShardOf(block)].Submit(arrival, block)
}

// SubmitWrite routes one block write to its owning shard.
func (a *Array) SubmitWrite(arrival float64, block int64) core.Outcome {
	return a.systems[a.ShardOf(block)].SubmitWrite(arrival, block)
}

// BatchScratch is per-caller reusable state for Array.SubmitBatch: the
// per-shard partitions, the scatter buffer, and one core.BatchScratch per
// shard. The zero value is ready to use; a nil scratch makes SubmitBatch
// allocate. Outcomes returned against a scratch are valid until its next
// use. Not safe for concurrent use — hold one per caller.
type BatchScratch struct {
	perBlocks [][]int64
	perIdx    [][]int
	out       []core.Outcome
	core      []core.BatchScratch
}

func (sc *BatchScratch) ensure(k int) {
	if cap(sc.perBlocks) < k {
		sc.perBlocks = make([][]int64, k)
		sc.perIdx = make([][]int, k)
	}
	sc.perBlocks = sc.perBlocks[:k]
	sc.perIdx = sc.perIdx[:k]
	if len(sc.core) < k {
		sc.core = make([]core.BatchScratch, k)
	}
	for i := 0; i < k; i++ {
		sc.perBlocks[i] = sc.perBlocks[i][:0]
		sc.perIdx[i] = sc.perIdx[i][:0]
	}
}

func (sc *BatchScratch) outBuf(n int) []core.Outcome {
	if cap(sc.out) < n {
		sc.out = make([]core.Outcome, n)
	}
	return sc.out[:n]
}

// SubmitBatch groups simultaneous requests by owning shard, admits each
// group jointly (core.System.SubmitBatch semantics per shard), and
// scatters the outcomes back into input order with global device ids.
// With a non-nil scratch the steady state is allocation-free.
func (a *Array) SubmitBatch(arrival float64, blocks []int64, sc *BatchScratch) []core.Outcome {
	if len(blocks) == 0 {
		return nil
	}
	if sc == nil {
		sc = &BatchScratch{}
	}
	sc.ensure(len(a.systems))
	if len(a.systems) == 1 {
		return a.systems[0].SubmitBatch(arrival, blocks, &sc.core[0])
	}
	perBlocks, perIdx := sc.perBlocks, sc.perIdx
	for j, b := range blocks {
		i := a.ShardOf(b)
		perBlocks[i] = append(perBlocks[i], b)
		perIdx[i] = append(perIdx[i], j)
	}
	sc.perBlocks, sc.perIdx = perBlocks, perIdx // keep grown backing
	out := sc.outBuf(len(blocks))
	for i, bs := range perBlocks {
		if len(bs) == 0 {
			continue
		}
		for k, o := range a.systems[i].SubmitBatch(arrival, bs, &sc.core[i]) {
			out[perIdx[i][k]] = o
		}
	}
	return out
}

// BurstScratch is per-caller reusable state for Array.SubmitBurst: the
// per-shard request buckets with their input positions, one
// core.BurstScratch per shard, and the scatter buffer. The zero value is
// ready to use; a nil scratch makes SubmitBurst allocate. Outcomes returned
// against a scratch are valid until its next use. Not safe for concurrent
// use — hold one per caller (e.g. per connection).
type BurstScratch struct {
	perReqs [][]core.BurstReq
	perIdx  [][]int32
	outs    []core.Outcome
	core    []core.BurstScratch
}

func (sc *BurstScratch) ensure(k int) {
	if len(sc.core) < k {
		sc.perReqs = make([][]core.BurstReq, k)
		sc.perIdx = make([][]int32, k)
		sc.core = make([]core.BurstScratch, k)
	}
	for i := 0; i < k; i++ {
		sc.perReqs[i] = sc.perReqs[i][:0]
		sc.perIdx[i] = sc.perIdx[i][:0]
	}
}

// SubmitBurst routes a burst of simultaneous requests to their owning
// shards: the requests are bucketed per shard, every shard admits its
// bucket as one contiguous sub-burst (SubmitBurstShard — each shard's
// ledger is touched once per burst, not once per request), and the
// outcomes are scattered back into input order. Outcomes are bit-identical
// to routing each request through Submit/SubmitWrite in input order. With
// a non-nil scratch the steady state is allocation-free. Callers that can
// bucket while they decode (the binary server) skip the gather and call
// SubmitBurstShard directly.
func (a *Array) SubmitBurst(arrival float64, reqs []core.BurstReq, sc *BurstScratch) []core.Outcome {
	if len(reqs) == 0 {
		return nil
	}
	if sc == nil {
		sc = &BurstScratch{}
	}
	sc.ensure(len(a.systems))
	if len(a.systems) == 1 {
		return a.SubmitBurstShard(0, arrival, reqs, &sc.core[0])
	}
	for j := range reqs {
		i := a.ShardOf(reqs[j].Block)
		sc.perReqs[i] = append(sc.perReqs[i], reqs[j])
		sc.perIdx[i] = append(sc.perIdx[i], int32(j))
	}
	if cap(sc.outs) < len(reqs) {
		sc.outs = make([]core.Outcome, len(reqs))
	}
	out := sc.outs[:len(reqs)]
	for i, bucket := range sc.perReqs {
		if len(bucket) == 0 {
			continue
		}
		for k, o := range a.SubmitBurstShard(i, arrival, bucket, &sc.core[i]) {
			out[sc.perIdx[i][k]] = o
		}
	}
	return out
}

// SubmitBurstShard admits a burst whose requests all belong to shard sh
// (per Route/ShardOf) — the pre-partitioned entry point for callers that
// bucket requests by shard while decoding them. Outcomes are in input
// order with global device ids, bit-identical to the same subsequence
// routed through SubmitBurst. The scratch belongs to the caller (one per
// (connection, shard)); nil allocates.
func (a *Array) SubmitBurstShard(sh int, arrival float64, reqs []core.BurstReq, sc *core.BurstScratch) []core.Outcome {
	return a.systems[sh].SubmitBurst(arrival, reqs, sc)
}

// S returns the aggregate admission limit: K·S(M) guaranteed requests per
// interval across the whole array.
func (a *Array) S() int {
	s := 0
	for _, cs := range a.systems {
		s += cs.S()
	}
	return s
}

// EffectiveS returns the aggregate current limit: each shard contributes
// S'(M) when degraded, S(M) otherwise — a failure only shrinks the budget
// of the shard owning the device.
func (a *Array) EffectiveS() int {
	s := 0
	for _, cs := range a.systems {
		s += cs.EffectiveS()
	}
	return s
}

// IntervalMS returns the QoS interval T (identical across shards).
func (a *Array) IntervalMS() float64 { return a.systems[0].IntervalMS() }

// Q returns the worst per-shard violation-probability estimate (0 for
// deterministic systems).
func (a *Array) Q() float64 {
	q := 0.0
	for _, cs := range a.systems {
		if v := cs.Q(); v > q {
			q = v
		}
	}
	return q
}

// ShardStats is one shard's slice of Stats.
type ShardStats struct {
	S          int     // full admission limit S(M)
	EffectiveS int     // current limit (S' when degraded)
	Alive      int     // devices in service (N when no monitor is attached)
	Q          float64 // statistical violation estimate
}

// Stats is an aggregated snapshot across all shards.
type Stats struct {
	Shards     int
	Devices    int
	S          int // ΣS per interval
	EffectiveS int // ΣS' per interval
	Alive      int // devices in service
	PerShard   []ShardStats
}

// Stats snapshots per-shard and aggregate admission state.
func (a *Array) Stats() Stats {
	st := Stats{
		Shards:   len(a.systems),
		Devices:  a.Devices(),
		PerShard: make([]ShardStats, len(a.systems)),
	}
	for i, cs := range a.systems {
		ss := ShardStats{S: cs.S(), EffectiveS: cs.EffectiveS(), Alive: a.devsPer, Q: cs.Q()}
		if m := a.mons[i]; m != nil {
			ss.Alive = m.Mask().Alive
		}
		st.S += ss.S
		st.EffectiveS += ss.EffectiveS
		st.Alive += ss.Alive
		st.PerShard[i] = ss
	}
	return st
}
