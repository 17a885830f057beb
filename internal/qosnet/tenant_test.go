package qosnet

import (
	"strings"
	"sync"
	"testing"

	"flashqos/internal/admission"
	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/wire"
)

// startTenantServer starts a server whose T-window is far longer than the
// test's wall-clock run, so every request lands in window 0 and tenant
// caps/limits apply deterministically regardless of round-trip timing.
func startTenantServer(t *testing.T) (*Server, string) {
	t.Helper()
	sys, err := core.New(core.Config{Design: design.Paper931(), IntervalMS: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, sys, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr.String()
}

// TestTenantUnknownUniformAcrossProtocols pins the satellite contract: a
// submission tagged with a tenant the server does not know is refused with
// the same "unknown tenant" wire error on both protocols — never silently
// admitted on the untenanted path.
func TestTenantUnknownUniformAcrossProtocols(t *testing.T) {
	srv, addr := startTenantServer(t)
	if _, err := srv.arr.TenantSet(admission.TenantSpec{Name: "alpha", Reserve: 2, Weight: 1}); err != nil {
		t.Fatal(err)
	}

	tc := dialText(t, addr)
	for _, line := range []string{"READ 5 ghost", "WRITE 5 ghost"} {
		if got := tc.do(line); got != "ERR unknown tenant" {
			t.Fatalf("text %s = %q, want ERR unknown tenant", line, got)
		}
	}

	bc := dialBinT(t, addr)
	for _, idx := range []int32{2, 99} { // inactive slot and out-of-table
		if _, err := bc.ReadTenant(5, idx); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
			t.Fatalf("binary unknown tenant %d: err = %v", idx, err)
		}
		if res := <-bc.submitBlock(wire.OpWrite, 5, idx); res.Err == nil || !strings.Contains(res.Err.Error(), "unknown tenant") {
			t.Fatalf("binary unknown tenant write %d: err = %v", idx, res.Err)
		}
	}

	// A deleted tenant's index and name both turn unknown on the spot.
	if err := srv.arr.TenantDel("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.ReadTenant(5, 1); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("binary deleted tenant: err = %v", err)
	}
	if got := tc.do("READ 5 alpha"); got != "ERR unknown tenant" {
		t.Fatalf("text deleted tenant = %q", got)
	}

	// Counters saw none of the refused submissions, and untenanted traffic
	// was never touched.
	if stats := srv.arr.TenantStats(); len(stats) != 0 {
		t.Fatalf("refused submissions left counters: %+v", stats)
	}
	if got := tc.do("READ 5"); !strings.HasPrefix(got, "OK ") {
		t.Fatalf("untenanted read after refusals = %q", got)
	}
}

// TestBinaryTenantEndToEnd drives the whole binary tenant surface against
// one server: live SET, hello negotiation, tagged submissions with the
// over-limit status bit, GET/STATS gauge aggregation, the METRICS series,
// and DEL turning the index unknown.
func TestBinaryTenantEndToEnd(t *testing.T) {
	_, addr := startTenantServer(t)
	c := dialBinT(t, addr)

	idx, err := c.TenantSet(wire.TenantSpec{Name: "alpha", Reserve: 2, Limit: 2, Weight: 1})
	if err != nil || idx != 1 {
		t.Fatalf("TenantSet alpha: %d %v", idx, err)
	}
	if idx, err = c.TenantSet(wire.TenantSpec{Name: "beta", Reserve: 2, Weight: 1}); err != nil || idx != 2 {
		t.Fatalf("TenantSet beta: %d %v", idx, err)
	}
	if _, err := c.TenantSet(wire.TenantSpec{Name: "big", Reserve: 99, Weight: 1}); err == nil {
		t.Fatal("TenantSet beyond S accepted")
	}

	hello, err := c.TenantHello([]string{"alpha", "beta", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if hello[0] != 1 || hello[1] != 2 || hello[2] != 0 {
		t.Fatalf("hello = %v, want [1 2 0]", hello)
	}

	// Five tagged reads against Limit 2: two admitted, three rejected with
	// the over-limit status bit (everything lands in window 0).
	admitted, overLimit := 0, 0
	for b := int64(0); b < 5; b++ {
		res, err := c.ReadTenant(b, hello[0])
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !res.Rejected:
			admitted++
		case res.OverLimit:
			overLimit++
		default:
			t.Fatalf("block %d: rejected without the over-limit bit: %+v", b, res)
		}
	}
	if admitted != 2 || overLimit != 3 {
		t.Fatalf("admitted %d overLimit %d, want 2 and 3", admitted, overLimit)
	}

	entry, err := c.TenantGet("alpha")
	if err != nil {
		t.Fatal(err)
	}
	want := wire.TenantEntry{
		Index:    1,
		Spec:     wire.TenantSpec{Name: "alpha", Reserve: 2, Limit: 2, Weight: 1},
		Admitted: 2, Rejected: 3, OverLimit: 3,
	}
	if entry != want {
		t.Fatalf("TenantGet = %+v, want %+v", entry, want)
	}
	if _, err := c.TenantGet("ghost"); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("TenantGet ghost: %v", err)
	}

	stats, err := c.TenantStats()
	if err != nil || len(stats) != 2 {
		t.Fatalf("TenantStats: %+v %v", stats, err)
	}
	if stats[0] != want || stats[1].Spec.Name != "beta" || stats[1].Index != 2 {
		t.Fatalf("TenantStats entries: %+v", stats)
	}

	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`flashqos_tenant_admitted_total{tenant="alpha"} 2`,
		`flashqos_tenant_rejected_total{tenant="alpha"} 3`,
		`flashqos_tenant_over_limit_total{tenant="alpha"} 3`,
		`flashqos_tenant_reservation_deficit_total{tenant="alpha"} 0`,
		`flashqos_tenant_admitted_total{tenant="beta"} 0`,
	} {
		if !strings.Contains(metrics, series+"\n") {
			t.Errorf("metrics page missing %q", series)
		}
	}

	if err := c.TenantDel("beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadTenant(1, 2); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("deleted tenant index still submits: %v", err)
	}
	// Untenanted traffic rode along untouched the whole time.
	if res, err := c.Read(9); err != nil || res.Rejected {
		t.Fatalf("untenanted read: %+v %v", res, err)
	}
}

// TestTextTenantVerbs covers the TENANT SET/GET/DEL line verbs and
// name-tagged READ/WRITE on the text protocol.
func TestTextTenantVerbs(t *testing.T) {
	_, addr := startTenantServer(t)
	c := dialText(t, addr)
	for _, x := range []struct{ line, want string }{
		{"TENANT SET alpha 2 4 1.5", "OK 1"},
		{"TENANT SET big 99 0 1", "ERR admission: reservations total 101 > capacity 5"},
		// The frame carries int32 caps and a one-byte name length.
		{"TENANT SET big 1 3000000000 1", "ERR bad TENANT SET arguments"},
		{"TENANT SET " + strings.Repeat("n", 256) + " 1 0 1", "ERR tenant name longer than 255 bytes"},
		{"READ 3 alpha", "OK "},
		{"WRITE 4 alpha", "OK "},
		{"TENANT GET alpha", "TENANT alpha index=1 reserve=2 limit=4 weight=1.5 admitted=2 rejected=0 overlimit=0 deficit=0"},
		{"TENANT DEL alpha", "OK deleted"},
		{"TENANT GET alpha", "ERR unknown tenant"},
		{"READ 3 alpha", "ERR unknown tenant"},
	} {
		if got := c.do(x.line); got != x.want && !(x.want == "OK " && strings.HasPrefix(got, x.want)) {
			t.Fatalf("%s = %q, want %q", x.line, got, x.want)
		}
	}
}

// TestTenantReconfigOverWire hammers tenant-tagged submissions over the
// binary protocol while the policy is live-reconfigured through TENANT SET
// on another connection: no submission may fail (SET keeps indices active),
// no engine pause, and the registry stays consistent. Run with -race this
// doubles as the reconfiguration stress for the network layer.
func TestTenantReconfigOverWire(t *testing.T) {
	srv, addr := startServer(t) // real 0.133ms windows: reconfig races window turnover
	if _, err := srv.arr.TenantSet(admission.TenantSpec{Name: "alpha", Reserve: 2, Weight: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.arr.TenantSet(admission.TenantSpec{Name: "beta", Reserve: 2, Weight: 1}); err != nil {
		t.Fatal(err)
	}

	const perWorker = 400
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w, tenant := range []int32{1, 2} {
		wg.Add(1)
		go func(w int, tenant int32) {
			defer wg.Done()
			c, err := DialBinary(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				if _, err := c.ReadTenant(int64(w*perWorker+i), tenant); err != nil {
					errs <- err
					return
				}
			}
		}(w, tenant)
	}

	admin := dialBinT(t, addr)
	for i := 0; i < 60; i++ {
		wa, wb := float64(3), float64(1)
		if i%2 == 1 {
			wa, wb = 1, 3
		}
		if _, err := admin.TenantSet(wire.TenantSpec{Name: "alpha", Reserve: 2, Weight: wa}); err != nil {
			t.Fatal(err)
		}
		if _, err := admin.TenantSet(wire.TenantSpec{Name: "beta", Reserve: 2, Weight: wb}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stats, err := admin.TenantStats()
	if err != nil || len(stats) != 2 {
		t.Fatalf("TenantStats: %+v %v", stats, err)
	}
	for _, e := range stats {
		if e.Admitted+e.Rejected+e.OverLimit != perWorker {
			t.Fatalf("tenant %s lost submissions: %+v", e.Spec.Name, e)
		}
		if e.Admitted == 0 {
			t.Fatalf("tenant %s starved across reconfigs: %+v", e.Spec.Name, e)
		}
	}
}
