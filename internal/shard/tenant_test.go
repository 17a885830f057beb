package shard

import (
	"testing"

	"flashqos/internal/admission"
	"flashqos/internal/core"
)

func TestTenantRegistryStableIndices(t *testing.T) {
	a := newArray(t, 3, core.Config{M: 2})
	ia, err := a.TenantSet(admission.TenantSpec{Name: "a", Reserve: 2, Weight: 1})
	if err != nil || ia != 1 {
		t.Fatalf("set a: index=%d err=%v, want 1", ia, err)
	}
	ib, err := a.TenantSet(admission.TenantSpec{Name: "b", Reserve: 2, Weight: 1})
	if err != nil || ib != 2 {
		t.Fatalf("set b: index=%d err=%v, want 2", ib, err)
	}
	// Updating keeps the index; deleting reserves the slot; a new tenant
	// reuses the first inactive slot.
	if i, err := a.TenantSet(admission.TenantSpec{Name: "a", Reserve: 3, Weight: 2}); err != nil || i != 1 {
		t.Fatalf("update a: index=%d err=%v, want 1", i, err)
	}
	if err := a.TenantDel("a"); err != nil {
		t.Fatal(err)
	}
	if a.TenantActive(1) {
		t.Fatal("deleted slot 1 still active")
	}
	if !a.TenantActive(2) {
		t.Fatal("slot 2 should stay active")
	}
	if i, err := a.TenantSet(admission.TenantSpec{Name: "c", Weight: 1}); err != nil || i != 1 {
		t.Fatalf("set c: index=%d err=%v, want reused slot 1", i, err)
	}
	if got := a.TenantIndex("c"); got != 1 {
		t.Fatalf("TenantIndex(c) = %d, want 1", got)
	}
	if got := a.TenantIndex("a"); got != 0 {
		t.Fatalf("TenantIndex(a) = %d after delete, want 0", got)
	}
	if err := a.TenantDel("a"); err == nil {
		t.Fatal("deleting an unknown tenant should fail")
	}
}

func TestTenantSetValidation(t *testing.T) {
	a := newArray(t, 2, core.Config{M: 2}) // S = 14 per shard
	if _, err := a.TenantSet(admission.TenantSpec{Name: "", Weight: 1}); err == nil {
		t.Fatal("empty name should fail")
	}
	if _, err := a.TenantSet(admission.TenantSpec{Name: "big", Reserve: 15, Weight: 1}); err == nil {
		t.Fatal("reserve beyond per-shard S should fail")
	}
	// A failed set must leave the registry untouched everywhere.
	if got := a.TenantIndex("big"); got != 0 {
		t.Fatalf("failed TenantSet registered index %d", got)
	}
	for i := 0; i < a.Shards(); i++ {
		if specs := a.System(i).TenantSpecs(); len(specs) != 0 {
			t.Fatalf("shard %d holds %d specs after failed set", i, len(specs))
		}
	}
}

func TestTenantFanOutAndAggregation(t *testing.T) {
	a := newArray(t, 3, core.Config{M: 2, ServiceMS: 0.001})
	if _, err := a.TenantSet(admission.TenantSpec{Name: "a", Reserve: 2, Limit: 4, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	// Every shard carries the same spec.
	for i := 0; i < a.Shards(); i++ {
		specs := a.System(i).TenantSpecs()
		if len(specs) != 1 || specs[0].Name != "a" || specs[0].Reserve != 2 {
			t.Fatalf("shard %d specs = %+v", i, specs)
		}
	}
	// Submissions spread across shards; aggregated counters see them all.
	// All 60 arrive in window 0, so each shard admits its Limit of 4 there
	// (its cap is 14) and turns the rest away as over limit.
	admitted := 0
	for b := int64(0); b < 60; b++ {
		out := a.SubmitTenant(float64(b)*0.001, b, 1)
		if out.Tenant != 1 {
			t.Fatalf("block %d outcome tagged %d", b, out.Tenant)
		}
		switch {
		case out.Rejected && !out.OverLimit:
			t.Fatalf("block %d rejected under the limit: %+v", b, out)
		case !out.Rejected:
			if w := a.System(a.ShardOf(b)).Window(out.Admitted); w != 0 {
				t.Fatalf("block %d admitted in window %d, want 0", b, w)
			}
			admitted++
		}
	}
	if admitted != 4*a.Shards() {
		t.Fatalf("admitted %d, want the limit of 4 on each of %d shards", admitted, a.Shards())
	}
	tc, ok := a.TenantGet("a")
	if !ok || tc.Index != 1 {
		t.Fatalf("TenantGet = %+v ok=%v", tc, ok)
	}
	if tc.Admitted != int64(admitted) {
		t.Fatalf("aggregated Admitted = %d, observed %d", tc.Admitted, admitted)
	}
	// Per-shard counters must sum to the aggregate (traffic hit >1 shard).
	var perShard int64
	shardsHit := 0
	for i := 0; i < a.Shards(); i++ {
		if c, ok := a.System(i).TenantCounters("a"); ok && c.Admitted > 0 {
			perShard += c.Admitted
			shardsHit++
		}
	}
	if perShard != tc.Admitted || shardsHit < 2 {
		t.Fatalf("per-shard sum %d (across %d shards) != aggregate %d", perShard, shardsHit, tc.Admitted)
	}
	stats := a.TenantStats()
	if len(stats) != 1 || stats[0].Counters != tc.Counters {
		t.Fatalf("TenantStats = %+v, want one entry matching TenantGet %+v", stats, tc)
	}
	// Unknown tenant index rejects on every shard's path.
	if out := a.SubmitTenant(1.0, 7, 9); !out.Rejected {
		t.Fatalf("unknown tenant admitted: %+v", out)
	}
	// Writes carry the tenant too.
	if out := a.SubmitWriteTenant(2.0, 7, 1); out.Tenant != 1 {
		t.Fatalf("write outcome tagged %d", out.Tenant)
	}
}

func TestTenantBurstShard(t *testing.T) {
	a := newArray(t, 2, core.Config{M: 2, ServiceMS: 0.001})
	if _, err := a.TenantSet(admission.TenantSpec{Name: "a", Reserve: 3, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	// Build a burst for shard 0 only, tagged with the tenant.
	var reqs []core.BurstReq
	for b := int64(0); len(reqs) < 6; b++ {
		if a.ShardOf(b) == 0 {
			reqs = append(reqs, core.BurstReq{Block: b, Tenant: 1})
		}
	}
	// Six reads fit the tenant's cap of 14: all are admitted in window 0.
	outs := a.SubmitBurstShard(0, 0, reqs, nil)
	for i, o := range outs {
		if o.Tenant != 1 || o.Rejected || a.System(0).Window(o.Admitted) != 0 {
			t.Fatalf("burst outcome %d: %+v, want tenant 1 admitted in window 0", i, o)
		}
	}
	if c, ok := a.System(0).TenantCounters("a"); !ok || c.Admitted != int64(len(reqs)) {
		t.Fatalf("shard 0 counters = %+v ok=%v, want Admitted=%d", c, ok, len(reqs))
	}
}
