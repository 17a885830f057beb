package proxy

import (
	"strconv"
	"strings"
	"testing"

	"flashqos/internal/admission"
	"flashqos/internal/core"
	"flashqos/internal/health"
	"flashqos/internal/qosnet"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

// startTenantBackend is startBackend with a T-window far longer than the
// test's wall clock, so every request lands in window 0 and per-backend
// tenant limits apply deterministically. It returns the served array.
func startTenantBackend(t *testing.T) (*shard.Array, string) {
	t.Helper()
	arr, err := shard.New(1, core.Config{N: 9, C: 3, M: 1, IntervalMS: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	err = arr.NewHealthMonitors(200, health.Config{SuspectAfter: 3, FailAfter: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := qosnet.NewServerSharded(arr, qosnet.Options{Proto: qosnet.ProtoBinary})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return arr, addr.String()
}

// TestProxyTenantControlPlane drives the tenant surface through the proxy:
// SET broadcasts to both backends with agreeing indices, HELLO resolves
// names cluster-wide, tagged submissions forward with each backend gating
// independently, GET/STATS merge the per-backend gauges, METRICS exposes
// the cluster series, and DEL turns the index unknown everywhere.
func TestProxyTenantControlPlane(t *testing.T) {
	arr0, a0 := startTenantBackend(t)
	arr1, a1 := startTenantBackend(t)
	_, c := startProxy(t, Options{ProbeInterval: -1}, a0, a1)

	idx, err := c.TenantSet(wire.TenantSpec{Name: "alpha", Reserve: 2, Limit: 2, Weight: 1})
	if err != nil || idx != 1 {
		t.Fatalf("TenantSet alpha via proxy: %d %v", idx, err)
	}
	if idx, err = c.TenantSet(wire.TenantSpec{Name: "beta", Reserve: 1, Weight: 2}); err != nil || idx != 2 {
		t.Fatalf("TenantSet beta via proxy: %d %v", idx, err)
	}
	// Both backends hold the same table: name→index agrees on direct dials.
	for _, arr := range []*shard.Array{arr0, arr1} {
		if got := arr.TenantIndex("alpha"); got != 1 {
			t.Fatalf("backend alpha index = %d, want 1", got)
		}
		if got := arr.TenantIndex("beta"); got != 2 {
			t.Fatalf("backend beta index = %d, want 2", got)
		}
	}
	// A reserve beyond any backend's S is refused cluster-wide.
	if _, err := c.TenantSet(wire.TenantSpec{Name: "big", Reserve: 99, Weight: 1}); err == nil {
		t.Fatal("TenantSet beyond S accepted through proxy")
	}

	hello, err := c.TenantHello([]string{"alpha", "beta", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if hello[0] != 1 || hello[1] != 2 || hello[2] != 0 {
		t.Fatalf("proxy hello = %v, want [1 2 0]", hello)
	}

	// Tagged submissions route by block and each backend gates its own
	// share against Limit 2; expected admissions are min(2, routed count)
	// per backend.
	want := [2]int{}
	admitted, overLimit := 0, 0
	for block := int64(0); block < 12; block++ {
		owner := shard.Route(block, 2)
		if want[owner] < 2 {
			want[owner]++
		}
		res, err := c.ReadTenant(block, hello[0])
		if err != nil {
			t.Fatalf("tagged READ %d: %v", block, err)
		}
		switch {
		case !res.Rejected:
			admitted++
			if res.Device/9 != owner {
				t.Errorf("tagged READ %d served by device %d, want backend %d", block, res.Device, owner)
			}
		case res.OverLimit:
			overLimit++
		default:
			t.Fatalf("tagged READ %d rejected without the over-limit bit: %+v", block, res)
		}
	}
	if wantTotal := want[0] + want[1]; admitted != wantTotal || overLimit != 12-wantTotal {
		t.Fatalf("admitted %d / overLimit %d, want %d / %d", admitted, overLimit, wantTotal, 12-wantTotal)
	}

	// An index no backend knows is refused with the backend's own error.
	if _, err := c.ReadTenant(3, 99); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("unknown tenant through proxy: %v", err)
	}

	// GET and STATS sum the gauges across backends.
	entry, err := c.TenantGet("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Index != 1 || entry.Admitted != int64(admitted) || entry.OverLimit != int64(overLimit) {
		t.Fatalf("proxy TenantGet = %+v, want admitted %d overLimit %d", entry, admitted, overLimit)
	}
	stats, err := c.TenantStats()
	if err != nil || len(stats) != 2 {
		t.Fatalf("proxy TenantStats: %+v %v", stats, err)
	}
	if stats[0] != entry || stats[1].Spec.Name != "beta" || stats[1].Admitted != 0 {
		t.Fatalf("proxy TenantStats entries: %+v", stats)
	}
	if _, err := c.TenantGet("ghost"); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("proxy TenantGet ghost: %v", err)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`flashqos_proxy_tenant_admitted_total{tenant="alpha"} ` + strconv.Itoa(admitted),
		`flashqos_proxy_tenant_over_limit_total{tenant="alpha"} ` + strconv.Itoa(overLimit),
		`flashqos_proxy_tenant_admitted_total{tenant="beta"} 0`,
	} {
		if !strings.Contains(m, series+"\n") {
			t.Errorf("proxy metrics missing %q", series)
		}
	}

	// DEL broadcasts: the index refuses on both backends afterwards.
	if err := c.TenantDel("beta"); err != nil {
		t.Fatal(err)
	}
	for _, arr := range []*shard.Array{arr0, arr1} {
		if arr.TenantActive(2) {
			t.Fatal("beta still active on a backend after proxy DEL")
		}
	}
	if _, err := c.ReadTenant(1, 2); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("deleted tenant through proxy: %v", err)
	}
	// Untenanted traffic rode along untouched.
	if res, err := c.Read(20); err != nil || res.Rejected {
		t.Fatalf("untenanted read through proxy: %+v %v", res, err)
	}
}

// TestProxyTenantIndexMismatch skews one backend's table out from under the
// proxy and checks the control plane refuses to answer with ambiguous
// indices instead of silently picking one.
func TestProxyTenantIndexMismatch(t *testing.T) {
	arr0, a0 := startTenantBackend(t)
	_, a1 := startTenantBackend(t)
	_, c := startProxy(t, Options{ProbeInterval: -1}, a0, a1)

	// Backend 0 learns a tenant behind the proxy's back, so the next
	// cluster-wide SET lands on different slots.
	if _, err := arr0.TenantSet(admission.TenantSpec{Name: "rogue", Reserve: 1, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TenantSet(wire.TenantSpec{Name: "alpha", Reserve: 1, Weight: 1}); err == nil ||
		!strings.Contains(err.Error(), "index mismatch") {
		t.Fatalf("skewed SET: err = %v, want index mismatch", err)
	}
	// HELLO sees the divergence too: "rogue" resolves on one backend only.
	if _, err := c.TenantHello([]string{"rogue"}); err == nil ||
		!strings.Contains(err.Error(), "index mismatch") {
		t.Fatalf("skewed HELLO: err = %v, want index mismatch", err)
	}
}
