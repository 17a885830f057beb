package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"flashqos/internal/admission"
	"flashqos/internal/design"
)

// tenantSystem builds a System over the paper (9,3,1) design with
// a tenant policy installed. ServiceMS is pinned tiny so device scheduling
// never competes with admission control and per-window counts stay exact.
func tenantSystem(t *testing.T, cfg Config, specs ...admission.TenantSpec) *System {
	t.Helper()
	if cfg.Design == nil {
		cfg.Design = design.Paper931()
	}
	if cfg.ServiceMS == 0 {
		cfg.ServiceMS = 0.001
	}
	cs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) > 0 {
		if err := cs.SetTenants(specs); err != nil {
			t.Fatal(err)
		}
	}
	return cs
}

func TestTenantZeroMatchesUntagged(t *testing.T) {
	// Tenant 0 must behave exactly like the tenant-less entry point even
	// when a policy is installed: untenanted traffic runs ungated.
	a := tenantSystem(t, Config{M: 2})
	b := tenantSystem(t, Config{M: 2}, admission.TenantSpec{Name: "x", Reserve: 1, Weight: 1})
	for i := 0; i < 200; i++ {
		arrival := float64(i) * 0.01
		oa := a.Submit(arrival, int64(i))
		ob := b.SubmitTenant(arrival, int64(i), 0)
		ob.Tenant = 0 // both are zero already; make the intent explicit
		if oa != ob {
			t.Fatalf("request %d: untagged %+v != tenant-0 %+v", i, oa, ob)
		}
	}
}

func TestTenantUnknownRejected(t *testing.T) {
	cs := tenantSystem(t, Config{M: 2}, admission.TenantSpec{Name: "a", Weight: 1})
	for _, tenant := range []int32{2, 7, -1} {
		out := cs.SubmitTenant(0, 1, tenant)
		if !out.Rejected || out.OverLimit || out.Unavailable {
			t.Fatalf("tenant %d: %+v, want plain rejection", tenant, out)
		}
		if out.Tenant != tenant {
			t.Fatalf("tenant %d: outcome tagged %d", tenant, out.Tenant)
		}
	}
	if got := cs.WindowCount(0); got != 0 {
		t.Fatalf("unknown-tenant rejections consumed %d ledger slots", got)
	}
}

func TestTenantOverLimitConsumesNoLedger(t *testing.T) {
	// Limit 2: the 3rd..5th arrivals in a window are turned away before any
	// S-bound credit is taken, so untenanted traffic can still fill the
	// window to S.
	cs := tenantSystem(t, Config{M: 2},
		admission.TenantSpec{Name: "a", Limit: 2, Weight: 1})
	admitted, overLimit := 0, 0
	for i := 0; i < 5; i++ {
		out := cs.SubmitTenant(0.01*float64(i), int64(i), 1)
		switch {
		case out.OverLimit:
			if !out.Rejected {
				t.Fatalf("over-limit outcome not rejected: %+v", out)
			}
			overLimit++
		case out.Rejected:
			t.Fatalf("rejected under the limit: %+v", out)
		default:
			if w := cs.Window(out.Admitted); w != 0 {
				t.Fatalf("admitted in window %d, want 0: %+v", w, out)
			}
			admitted++
		}
	}
	if admitted != 2 || overLimit != 3 {
		t.Fatalf("admitted=%d overLimit=%d, want 2 and 3", admitted, overLimit)
	}
	if got := cs.WindowCount(0); got != 2 {
		t.Fatalf("window holds %d slots, want 2 (over-limit must not consume credit)", got)
	}
	// The remaining S-2 slots are still there for other traffic.
	s := cs.S()
	for i := 0; i < s-2; i++ {
		if out := cs.Submit(0.05, int64(100+i)); out.Rejected || cs.Window(out.Admitted) != 0 {
			t.Fatalf("untenanted fill %d not admitted in window 0 with %d/%d slots used: %+v", i, cs.WindowCount(0), s, out)
		}
	}
	c, ok := cs.TenantCounters("a")
	if !ok || c.Admitted != 2 || c.OverLimit != 3 || c.Rejected != 3 {
		t.Fatalf("counters = %+v ok=%v, want Admitted=2 OverLimit=3 Rejected=3", c, ok)
	}
}

func TestTenantWriteChargesCSlots(t *testing.T) {
	// A write takes c tenant slots all-or-nothing, mirroring its c-slot
	// ledger reservation. Cap 5 with c=3: one write fits in window 0, a
	// second is delayed to window 1. The program time is pinned tiny like
	// the read time, so replica availability never moves a write.
	cs := tenantSystem(t, Config{M: 2, WriteServiceMS: 0.001},
		admission.TenantSpec{Name: "a", Reserve: 5, Weight: 1},
		admission.TenantSpec{Name: "b", Reserve: 9, Weight: 1},
	)
	window := func(what string, out Outcome, want int64) {
		t.Helper()
		if out.Rejected {
			t.Fatalf("%s rejected: %+v", what, out)
		}
		if w := cs.Window(out.Admitted); w != want {
			t.Fatalf("%s admitted in window %d, want %d: %+v", what, w, want, out)
		}
	}
	window("first write", cs.SubmitWriteTenant(0, 1, 1), 0)
	window("second write", cs.SubmitWriteTenant(0.01, 2, 1), 1)
	// Two reads still fit under the remaining 5-3=2 slots of window 0.
	for i := 0; i < 2; i++ {
		window("read", cs.SubmitTenant(0.02, int64(10+i), 1), 0)
	}
	// Window 0 is at cap; the next read joins the second write in window 1.
	window("read past cap", cs.SubmitTenant(0.03, 12, 1), 1)
}

func TestSubmitBurstTenantEquivalence(t *testing.T) {
	// A tenant-grouped burst must produce exactly the outcomes of the
	// per-request tenant path on an identical system.
	specs := []admission.TenantSpec{
		{Name: "a", Reserve: 3, Limit: 0, Weight: 3},
		{Name: "b", Reserve: 3, Limit: 6, Weight: 1},
	}
	ref := tenantSystem(t, Config{M: 2}, specs...)
	bur := tenantSystem(t, Config{M: 2}, specs...)
	var sc BurstScratch
	for round := 0; round < 40; round++ {
		arrival := float64(round) * 0.05
		var reqs []BurstReq
		for j := 0; j < 4; j++ {
			reqs = append(reqs, BurstReq{Block: int64(round*16 + j), Tenant: 1})
		}
		for j := 0; j < 4; j++ {
			reqs = append(reqs, BurstReq{Block: int64(round*16 + 8 + j), Tenant: 2})
		}
		reqs = append(reqs, BurstReq{Block: int64(round*16 + 14)}) // untenanted rider
		want := make([]Outcome, len(reqs))
		for i, r := range reqs {
			want[i] = ref.SubmitTenant(arrival, r.Block, r.Tenant)
		}
		got := bur.SubmitBurst(arrival, reqs, &sc)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d req %d: burst %+v != per-request %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestTenantFairness is the acceptance test for the multi-tenant seam: two
// tenants at 3:1 weights saturating a (9,3,1)/M=2 array (S=14) must see
// the surplus split 3:1 with both reservations honored and zero S-bound
// violations — then a live SetTenants flips the weights with no pause and
// the second phase splits 1:3. Nothing is rejected: over-cap arrivals are
// delayed, so each phase's split is read from the windows its requests were
// admitted in. Each tenant offers twice its window share per window, so
// both backlogs advance one window per arrival window and neither books
// replicas ahead of the other: the online scheduler keeps one next-free
// time per device, so a backlog running ahead would make the other
// tenant's windows wait for its bookings — a scheduler property, not the
// gate's.
func TestTenantFairness(t *testing.T) {
	const windows = 100 // arrival windows per phase
	cs := tenantSystem(t, Config{M: 2},
		admission.TenantSpec{Name: "alpha", Reserve: 3, Weight: 3},
		admission.TenantSpec{Name: "beta", Reserve: 3, Weight: 1},
	)
	s := cs.S()
	if s != 14 {
		t.Fatalf("S = %d, want 14 (c=3, M=2)", s)
	}
	interval := cs.IntervalMS()

	// phase saturates both tenants concurrently with arrivals over
	// [w0, w0+windows) and returns each tenant's admissions per admitted
	// window, the last window anything was admitted in, and the number of
	// requests offered per tenant. The goroutines
	// race within each arrival window but barrier between windows: logical
	// arrival times drive the device scheduler, so a tenant racing whole
	// windows ahead would book every replica into the future and starve the
	// other's timestamps — a harness artifact, not an admission property.
	phase := func(w0 int64) (perWindow map[int64]*[2]int64, last int64, sent [2]int64) {
		var mu sync.Mutex
		perWindow = map[int64]*[2]int64{}
		snap := cs.tenants.Snapshot()
		for w := w0; w < w0+windows; w++ {
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tenant := int32(g + 1)
					offered := 2 * snap.Cap(tenant)
					sent[g] += int64(offered)
					for j := 0; j < offered; j++ {
						arrival := float64(w)*interval + interval*(float64(j)+0.5)/float64(offered)
						block := w*1000 + int64(g)*500 + int64(j)
						out := cs.SubmitTenant(arrival, block, tenant)
						if out.Rejected {
							t.Errorf("rejected: %+v", out)
							return
						}
						aw := cs.Window(out.Admitted)
						mu.Lock()
						if perWindow[aw] == nil {
							perWindow[aw] = new([2]int64)
						}
						perWindow[aw][g]++
						last = max(last, aw)
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
		}
		return perWindow, last, sent
	}

	// checkSplit sums the phase's first windows, which both backlogs fill
	// (they span twice as many windows as the phase has arrival windows).
	checkSplit := func(name string, perWindow map[int64]*[2]int64, w0 int64, resA, resB int64, want float64) {
		t.Helper()
		var admA, admB int64
		for w := w0; w < w0+windows; w++ {
			if c := perWindow[w]; c != nil {
				admA += c[0]
				admB += c[1]
			}
		}
		if admA < resA*windows || admB < resB*windows {
			t.Fatalf("%s: reservations not honored: alpha %d/%d, beta %d/%d",
				name, admA, resA*windows, admB, resB*windows)
		}
		surplusA := float64(admA - resA*windows)
		surplusB := float64(admB - resB*windows)
		ratio := surplusA / surplusB
		if ratio < want*0.9 || ratio > want*1.1 {
			t.Fatalf("%s: surplus ratio %.3f (alpha %v, beta %v), want %.2f ±10%%",
				name, ratio, surplusA, surplusB, want)
		}
	}

	p1, last, sent1 := phase(0)
	checkSplit("phase 1 (3:1)", p1, 0, 3, 3, 3.0)

	// Live reconfiguration: swap the weights with no pause — the atomic
	// snapshot swap is the whole operation. The second phase's arrivals
	// start after the first phase's backlog, so its windows hold only
	// requests admitted under the new policy.
	if err := cs.SetTenants([]admission.TenantSpec{
		{Name: "alpha", Reserve: 3, Weight: 1},
		{Name: "beta", Reserve: 3, Weight: 3},
	}); err != nil {
		t.Fatal(err)
	}
	w2 := last + 1
	p2, _, sent2 := phase(w2)
	checkSplit("phase 2 (1:3 after live SetTenants)", p2, w2, 3, 3, 1.0/3)

	if got := cs.MaxWindowCount(); got > s {
		t.Fatalf("S-bound violated: max window count %d > S=%d", got, s)
	}
	for g, name := range []string{"alpha", "beta"} {
		c, ok := cs.TenantCounters(name)
		if !ok {
			t.Fatalf("no counters for %s", name)
		}
		if c.Deficit != 0 {
			t.Errorf("%s: reservation deficit %d, want 0 (Σcaps = S)", name, c.Deficit)
		}
		if want := sent1[g] + sent2[g]; c.Admitted != want {
			t.Errorf("%s: admitted gauge %d, want %d (every request admitted)", name, c.Admitted, want)
		}
	}
}

// benchTenants is the benchmark's admit_stat_tenant policy (gold:2:0:3,
// bronze:1:0:1): on S = 5, gold's cap is 4 and fits a c = 3 write, bronze's
// is 1.
var benchTenants = []admission.TenantSpec{
	{Name: "gold", Reserve: 2, Weight: 3},
	{Name: "bronze", Reserve: 1, Weight: 1},
}

// TestTenantCapsConcurrentOverload floods benchTenants from 8 goroutines at
// about five times capacity, ~1/8 writes, with a seeded 1 % of arrivals
// stamped one window early (a connection whose stamp was taken before
// another's scan started), at ε = 0 and ε = 0.002. Tenant scan frontiers
// are advisory under concurrency — a race may only admit later — so from the
// outcomes no tenant may exceed its cap in any window, and at ε = 0 no window
// may exceed S. The run stays far inside the tenant counters' retention, so
// pruning cannot excuse an excess.
func TestTenantCapsConcurrentOverload(t *testing.T) {
	for _, eps := range []float64{0, 0.002} {
		t.Run(fmt.Sprintf("eps=%g", eps), func(t *testing.T) {
			cs := newConcurrent(t, Config{Epsilon: eps, SampleTrials: 2000})
			if err := cs.SetTenants(benchTenants); err != nil {
				t.Fatal(err)
			}
			snap := cs.tenants.Snapshot()
			T, c := cs.IntervalMS(), cs.Design().C
			const goroutines, perG = 8, 250
			var clock atomic.Int64
			type result struct {
				out   Outcome
				write bool
			}
			results := make([][]result, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g) + 1))
					for i := 0; i < perG; i++ {
						arrival := float64(clock.Add(1)) * 0.005
						if rng.Intn(100) == 0 {
							arrival = math.Max(0, arrival-T)
						}
						tenant, block, write := int32(1+i&1), int64(rng.Intn(5000)), rng.Intn(8) == 0
						var out Outcome
						if write {
							out = cs.SubmitWriteTenant(arrival, block, tenant)
						} else {
							out = cs.SubmitTenant(arrival, block, tenant)
						}
						results[g] = append(results[g], result{out, write})
					}
				}(g)
			}
			wg.Wait()
			// Per-window slot use, from the outcomes alone.
			type key struct {
				tenant int32
				w      int64
			}
			perTenant, perWindow := map[key]int{}, map[int64]int{}
			for _, rs := range results {
				for _, r := range rs {
					if r.out.Rejected {
						// Under Delay only a write wider than its tenant's cap
						// (bronze's) is refused.
						if !r.write || snap.Cap(r.out.Tenant) >= c {
							t.Fatalf("rejected under the Delay policy: %+v", r.out)
						}
						continue
					}
					slots := 1
					if r.write {
						slots = c
					}
					w := cs.Window(r.out.Admitted)
					perTenant[key{r.out.Tenant, w}] += slots
					perWindow[w] += slots
				}
			}
			for k, n := range perTenant {
				if n > snap.Cap(k.tenant) {
					t.Errorf("tenant %d took %d slots in window %d, cap %d", k.tenant, n, k.w, snap.Cap(k.tenant))
				}
			}
			if eps == 0 {
				for w, n := range perWindow {
					if n > cs.S() {
						t.Errorf("window %d took %d slots, S = %d", w, n, cs.S())
					}
				}
			}
		})
	}
}

// TestTenantReconfigUnderLoad hammers SetTenants while submitters are in
// flight: no torn snapshots, no S-bound violation, and the gate keeps
// serving throughout (the stress anchor for the CI race step).
func TestTenantReconfigUnderLoad(t *testing.T) {
	cs := tenantSystem(t, Config{M: 2},
		admission.TenantSpec{Name: "alpha", Reserve: 3, Weight: 3},
		admission.TenantSpec{Name: "beta", Reserve: 3, Weight: 1},
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// A shared logical clock keeps arrival timestamps roughly ordered
	// across the submitters (the device scheduler books replicas in
	// logical time, so unbounded skew between goroutines is a harness
	// artifact the engine does not owe service under).
	var clock atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := int32(g%2 + 1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				arrival := float64(clock.Add(1)) * 0.01
				cs.SubmitTenant(arrival, int64(g*1_000_000+i), tenant)
			}
		}(g)
	}
	// Churn the policy until both tenants have demonstrably served traffic
	// through at least 200 reconfigurations (the submitters need wall time
	// to get going; Configure alone is near-instant).
	served := func(name string) bool {
		c, ok := cs.TenantCounters(name)
		return ok && c.Admitted > 0
	}
	for i := 0; i < 200 || !served("alpha") || !served("beta"); i++ {
		if i >= 200_000 {
			t.Fatal("submitters made no progress under reconfig churn")
		}
		specs := []admission.TenantSpec{
			{Name: "alpha", Reserve: int(i%4) + 1, Weight: float64(i%3) + 1},
			{Name: "beta", Reserve: 3, Limit: 10 * (i%2 + 1), Weight: 1},
		}
		if err := cs.SetTenants(specs); err != nil {
			t.Errorf("reconfig %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := cs.MaxWindowCount(); got > cs.S() {
		t.Fatalf("S-bound violated under reconfig churn: %d > %d", got, cs.S())
	}
	ca, ok := cs.TenantCounters("alpha")
	if !ok || ca.Admitted == 0 {
		t.Fatalf("alpha served nothing under churn: %+v ok=%v", ca, ok)
	}
}
