package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flashqos/internal/admission"
	"flashqos/internal/core"
)

// Tenant policy across shards.
//
// The Array holds the canonical tenant slot table — name → stable 1-based
// index — and installs the SAME spec on every shard's admission gate: a
// tenant's Reserve/Limit/Weight apply per shard against that shard's own
// S(M), so the aggregate reservation across the array is K·Reserve (blocks
// hash-spread uniformly, so a tenant's traffic sees every shard). Indices
// are stable across deletion: TenantDel clears the slot in place and a
// later TenantSet reuses the first inactive slot, so in-flight requests
// tagged with an index never alias a different tenant.
//
// Reads of the policy by the submit paths are lock-free (each engine's
// atomic snapshot); tenantMu only serializes the reconfiguration sequence
// itself.

// TenantCounters is one tenant's spec plus its admission gauges summed
// across every shard's gate.
type TenantCounters struct {
	Index int32 // stable 1-based tenant index
	Spec  admission.TenantSpec
	admission.Counters
}

// tenantState is the Array's registry: the canonical slot table, guarded
// by a mutex that serializes reconfigurations (never taken on submit),
// plus an atomically published active-slot table for the per-request
// validation the wire layer runs on its hot path.
type tenantState struct {
	mu    sync.Mutex
	specs []admission.TenantSpec
	// active[i] reports slot i+1 currently names an active tenant. The
	// slice is immutable once published; reconfiguration swaps in a fresh
	// one, so readers never see a torn table.
	active atomic.Pointer[[]bool]
}

// validateTenants dry-runs a slot table against the tightest shard
// capacity, so installation below either fails atomically (nothing
// installed anywhere) or succeeds on every shard.
func (a *Array) validateTenants(specs []admission.TenantSpec) error {
	minS := a.systems[0].S()
	for _, cs := range a.systems[1:] {
		if s := cs.S(); s < minS {
			minS = s
		}
	}
	gate, err := admission.NewMClock(minS)
	if err != nil {
		return err
	}
	return gate.Configure(specs)
}

// install pushes a validated slot table to every shard and records it as
// the canonical table. Caller holds a.tenants.mu.
func (a *Array) installTenants(specs []admission.TenantSpec) error {
	for i, cs := range a.systems {
		if err := cs.SetTenants(specs); err != nil {
			// Unreachable after validateTenants (per-shard capacity is at
			// least the validation capacity); fail loudly if the invariant
			// ever breaks rather than leave shards half-configured silently.
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	a.tenants.specs = append(a.tenants.specs[:0], specs...)
	active := make([]bool, len(specs))
	for i := range specs {
		active[i] = specs[i].Name != ""
	}
	a.tenants.active.Store(&active)
	return nil
}

// SetTenants validates and installs a whole tenant slot table on every
// shard (the bulk path behind boot-time -tenant flags). Slot i of specs
// becomes tenant index i+1 on the wire.
func (a *Array) SetTenants(specs []admission.TenantSpec) error {
	a.tenants.mu.Lock()
	defer a.tenants.mu.Unlock()
	if err := a.validateTenants(specs); err != nil {
		return err
	}
	return a.installTenants(specs)
}

// TenantSet creates or updates one tenant by name with no engine pause:
// an existing tenant keeps its index, a new one takes the first inactive
// slot (or extends the table). The spec applies per shard against each
// shard's own S.
func (a *Array) TenantSet(spec admission.TenantSpec) (index int32, err error) {
	if spec.Name == "" {
		return 0, fmt.Errorf("shard: tenant name must be non-empty")
	}
	a.tenants.mu.Lock()
	defer a.tenants.mu.Unlock()
	specs := append([]admission.TenantSpec(nil), a.tenants.specs...)
	slot := -1
	for i := range specs {
		if specs[i].Name == spec.Name {
			slot = i
			break
		}
	}
	if slot < 0 {
		for i := range specs {
			if specs[i].Name == "" {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		slot = len(specs)
		specs = append(specs, admission.TenantSpec{})
	}
	specs[slot] = spec
	if err := a.validateTenants(specs); err != nil {
		return 0, err
	}
	if err := a.installTenants(specs); err != nil {
		return 0, err
	}
	return int32(slot) + 1, nil
}

// TenantDel deactivates a tenant by name. The slot is cleared in place —
// the index stays reserved so concurrent requests carrying it reject as
// unknown instead of aliasing a later tenant.
func (a *Array) TenantDel(name string) error {
	a.tenants.mu.Lock()
	defer a.tenants.mu.Unlock()
	slot := -1
	for i := range a.tenants.specs {
		if a.tenants.specs[i].Name == name {
			slot = i
			break
		}
	}
	if slot < 0 {
		return fmt.Errorf("shard: unknown tenant %q", name)
	}
	specs := append([]admission.TenantSpec(nil), a.tenants.specs...)
	specs[slot] = admission.TenantSpec{}
	// Clearing a slot can only relax the gate; validation cannot fail.
	if err := a.validateTenants(specs); err != nil {
		return err
	}
	return a.installTenants(specs)
}

// TenantGet returns one tenant's spec, stable index and cross-shard
// aggregated counters.
func (a *Array) TenantGet(name string) (TenantCounters, bool) {
	a.tenants.mu.Lock()
	defer a.tenants.mu.Unlock()
	for i := range a.tenants.specs {
		if a.tenants.specs[i].Name == name && a.tenants.specs[i].Name != "" {
			return TenantCounters{
				Index:    int32(i) + 1,
				Spec:     a.tenants.specs[i],
				Counters: a.sumCounters(name),
			}, true
		}
	}
	return TenantCounters{}, false
}

// TenantIndex returns the stable 1-based index for a tenant name (0 when
// unknown) — the wire layer's name → index resolution at hello time.
func (a *Array) TenantIndex(name string) int32 {
	a.tenants.mu.Lock()
	defer a.tenants.mu.Unlock()
	for i := range a.tenants.specs {
		if a.tenants.specs[i].Name == name && a.tenants.specs[i].Name != "" {
			return int32(i) + 1
		}
	}
	return 0
}

// TenantActive reports whether a 1-based tenant index currently names an
// active tenant — the wire layer's per-request validation (a deleted
// index stays reserved but inactive). Lock-free: one atomic load of the
// published active-slot table.
func (a *Array) TenantActive(index int32) bool {
	p := a.tenants.active.Load()
	if p == nil {
		return false
	}
	i := int(index) - 1
	return i >= 0 && i < len(*p) && (*p)[i]
}

// TenantStats returns every active tenant's spec and cross-shard
// aggregated counters, in slot order (the METRICS exposition source).
func (a *Array) TenantStats() []TenantCounters {
	a.tenants.mu.Lock()
	defer a.tenants.mu.Unlock()
	var out []TenantCounters
	for i := range a.tenants.specs {
		if a.tenants.specs[i].Name == "" {
			continue
		}
		out = append(out, TenantCounters{
			Index:    int32(i) + 1,
			Spec:     a.tenants.specs[i],
			Counters: a.sumCounters(a.tenants.specs[i].Name),
		})
	}
	return out
}

// sumCounters adds one tenant's gauges across every shard's gate. Caller
// holds a.tenants.mu.
func (a *Array) sumCounters(name string) admission.Counters {
	var sum admission.Counters
	for _, cs := range a.systems {
		if c, ok := cs.TenantCounters(name); ok {
			sum.Admitted += c.Admitted
			sum.Rejected += c.Rejected
			sum.OverLimit += c.OverLimit
			sum.Deficit += c.Deficit
		}
	}
	return sum
}

// SubmitTenant routes one tenant-tagged block read to its owning shard
// (see core.System.SubmitTenant; tenant 0 behaves like Submit).
func (a *Array) SubmitTenant(arrival float64, block int64, tenant int32) core.Outcome {
	return a.systems[a.ShardOf(block)].SubmitTenant(arrival, block, tenant)
}

// SubmitWriteTenant routes one tenant-tagged block write to its owning
// shard.
func (a *Array) SubmitWriteTenant(arrival float64, block int64, tenant int32) core.Outcome {
	return a.systems[a.ShardOf(block)].SubmitWriteTenant(arrival, block, tenant)
}
