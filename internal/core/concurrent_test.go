package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"flashqos/internal/admission"
	"flashqos/internal/design"
	"flashqos/internal/sampling"
	"flashqos/internal/trace"
)

// newConcurrent builds a System (paper (9,3,1) design unless cfg names one)
// for the tests that submit from several goroutines at once.
func newConcurrent(t testing.TB, cfg Config) *System {
	t.Helper()
	if cfg.Design == nil && cfg.N == 0 {
		cfg.Design = design.Paper931()
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// engineTable samples the P_k table the way New samples it for cfg (MaxK
// 2N+S, seed cfg.Seed+1) but with a test-sized trial count, so a system
// given it as Config.Table decides exactly as one that sampled that many
// trials itself.
func engineTable(t testing.TB, cfg Config, trials int) *sampling.Table {
	t.Helper()
	cfg.Epsilon = 0
	sys := newConcurrent(t, cfg)
	tab, err := sampling.Estimate(sys.Allocator(), sampling.Options{
		MaxK:   2*sys.Design().N + sys.S(),
		Trials: trials,
		Seed:   cfg.Seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestConcurrentSubmitStress floods a System from many
// goroutines at ~5× the admission capacity S/T and asserts the paper's
// core invariant survives the concurrency: every request is admitted
// (Delay policy), no window ever exceeds S admissions, and the guaranteed
// path holds (service starts exactly at the admitted time, so the
// response time equals the service time). Run under -race this doubles as
// the memory-safety proof for the sharded admission path.
func TestConcurrentSubmitStress(t *testing.T) {
	cs := newConcurrent(t, Config{})
	const (
		goroutines = 16
		perG       = 250
		dt         = 0.005 // ms between arrivals → 200 req/ms offered vs ~37.6 capacity
	)
	var clock atomic.Int64
	outs := make([][]Outcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g] = make([]Outcome, 0, perG)
			for i := 0; i < perG; i++ {
				arrival := float64(clock.Add(1)) * dt
				out := cs.Submit(arrival, int64(g*1_000_000+i))
				outs[g] = append(outs[g], out)
			}
		}(g)
	}
	wg.Wait()

	s := cs.S()
	perWindow := make(map[int64]int)
	total := 0
	for g := range outs {
		for _, out := range outs[g] {
			total++
			if out.Rejected {
				t.Fatalf("request rejected under Delay policy: %+v", out)
			}
			if out.Admitted < 0 {
				t.Fatalf("negative admit time: %+v", out)
			}
			if math.Abs(out.Start-out.Admitted) > 1e-9 {
				t.Fatalf("guaranteed path violated: start %.9f != admitted %.9f", out.Start, out.Admitted)
			}
			if r := out.Response(); math.Abs(r-cs.cfg.ServiceMS) > 1e-9 {
				t.Fatalf("response %.9f != service time %.9f", r, cs.cfg.ServiceMS)
			}
			perWindow[cs.Window(out.Admitted)]++
		}
	}
	if total != goroutines*perG {
		t.Fatalf("outcomes = %d, want %d", total, goroutines*perG)
	}
	for w, n := range perWindow {
		if n > s {
			t.Errorf("window %d admitted %d requests, limit S=%d", w, n, s)
		}
	}
	if max := cs.MaxWindowCount(); max > s {
		t.Errorf("MaxWindowCount = %d, limit S=%d", max, s)
	}
}

// TestConcurrentMixedReadWriteStress mixes reads and writes. A write
// consumes c admission slots, so the per-window invariant becomes
// reads(w) + c·writes(w) ≤ S.
func TestConcurrentMixedReadWriteStress(t *testing.T) {
	cs := newConcurrent(t, Config{})
	c := cs.Design().C
	const (
		goroutines = 12
		perG       = 120
	)
	var clock atomic.Int64
	type res struct {
		out   Outcome
		write bool
	}
	results := make([][]res, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				arrival := float64(clock.Add(1)) * 0.01
				block := int64(rng.Intn(5000))
				if rng.Intn(4) == 0 {
					results[g] = append(results[g], res{cs.SubmitWrite(arrival, block), true})
				} else {
					results[g] = append(results[g], res{cs.Submit(arrival, block), false})
				}
			}
		}(g)
	}
	wg.Wait()

	s := cs.S()
	slots := make(map[int64]int)
	for g := range results {
		for _, r := range results[g] {
			if r.out.Rejected {
				t.Fatalf("rejected under Delay policy: %+v", r.out)
			}
			w := cs.Window(r.out.Admitted)
			if r.write {
				slots[w] += c
			} else {
				slots[w]++
			}
		}
	}
	for w, n := range slots {
		if n > s {
			t.Errorf("window %d consumed %d slots, limit S=%d", w, n, s)
		}
	}
}

// TestConcurrentStatisticalStress floods the ε > 0 path — now lock-free
// admission against a published Q snapshot, with closed windows merged
// into the estimator behind a short gate lock — from many goroutines.
// Under -race this is the memory-safety proof for the snapshot/merge
// protocol; the assertions pin its structural invariants: every request is
// admitted (Delay policy), Q stays a probability, and after quiescence the
// estimator has folded every closed window exactly once
// (nt == lastClosed+1 — a double or dropped merge breaks it).
func TestConcurrentStatisticalStress(t *testing.T) {
	cs := newConcurrent(t, Config{Epsilon: 0.05, Table: engineTable(t, Config{}, 2000)})
	const goroutines, perG = 8, 300
	var clock atomic.Int64
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				arrival := float64(clock.Add(1)) * 0.01
				out := cs.Submit(arrival, int64(g*1000+i))
				if !out.Rejected {
					admitted.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := admitted.Load(); got != goroutines*perG {
		t.Errorf("admitted %d, want %d (Delay policy rejects nothing)", got, goroutines*perG)
	}
	if q := cs.Q(); q < 0 || q > 1 {
		t.Errorf("Q = %g, want a probability", q)
	}
	gate := cs.stat
	last := gate.lastClosed.Load()
	if nt := gate.snap.Load().Intervals(); nt != last+1 {
		t.Errorf("estimator folded %d intervals, lastClosed=%d: every closed window must merge exactly once", nt, last)
	}
	if last < 1 {
		t.Errorf("lastClosed=%d: the stress run should have closed many windows", last)
	}
}

// TestConcurrentStatisticalMergeStress hammers the window-close boundary
// specifically: many goroutines submit arrivals straddling the same window
// edges, so merges race with lock-free snapshot readers and with stragglers
// adding to just-closed windows. Run under -race this is the data-race
// proof for statGate; the exactly-once fold invariant is re-asserted after
// the storm.
func TestConcurrentStatisticalMergeStress(t *testing.T) {
	cs := newConcurrent(t, Config{Epsilon: 0.05, Table: engineTable(t, Config{}, 1000)})
	const goroutines = 8
	const windows = 200
	T := cs.IntervalMS()
	var subWg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		subWg.Add(1)
		go func(g int) {
			defer subWg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for w := 0; w < windows; w++ {
				// Arrivals jittered around each window boundary, from every
				// goroutine at once: some land just before the edge (into the
				// closing window), some just after (forcing the close).
				base := float64(w) * T
				for i := 0; i < 4; i++ {
					arr := base + (rng.Float64()-0.3)*T*0.5
					if arr < 0 {
						arr = 0
					}
					out := cs.Submit(arr, int64(rng.Intn(4000)))
					if out.Rejected {
						t.Errorf("rejected: %+v", out)
						return
					}
				}
			}
		}(g)
	}
	subWg.Wait()
	gate := cs.stat
	last := gate.lastClosed.Load()
	if nt := gate.snap.Load().Intervals(); nt != last+1 {
		t.Errorf("estimator folded %d intervals, lastClosed=%d: exactly-once merge violated", nt, last)
	}
	if q := cs.Q(); q < 0 || q > 1 {
		t.Errorf("Q = %g, want a probability", q)
	}
}

// TestStatisticalViolationBoundConcurrent reruns the statistical QoS
// contract test (TestStatisticalViolationBound in core_test.go) with the
// same trace, table and epsilon, but with 8 goroutines submitting through
// one System in ticket order: record i is submitted only after record
// i-1's Submit has returned, so the engine sees arrivals in arrival order
// while every submission may run on a different goroutine (and, with
// GOMAXPROCS > 1, thread). The engine must then be exact: the violated
// windows and the controller's Q equal a one-goroutine run's, on any core
// count. (Submitting out of arrival order changes decisions — the
// dead-window frontier is final per window — so a harness that lets
// goroutines race for records measures the interleaving, not the engine.)
func TestStatisticalViolationBoundConcurrent(t *testing.T) {
	tr, err := trace.ExchangeLike(13, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := sampling.Estimate(base.Allocator(), sampling.Options{MaxK: 25, Trials: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.002
	violated := func(cs *System, outs []Outcome) map[int64]bool {
		v := map[int64]bool{}
		for _, out := range outs {
			if out.Response() > service+1e-9 {
				v[cs.Window(out.Admitted)] = true
			}
		}
		return v
	}

	serial := newConcurrent(t, Config{Epsilon: eps, Table: tab})
	serialOuts := make([]Outcome, len(tr.Records))
	for i, r := range tr.Records {
		serialOuts[i] = serial.Submit(r.Arrival, r.Block)
	}
	want := violated(serial, serialOuts)

	cs := newConcurrent(t, Config{Epsilon: eps, Table: tab})
	const goroutines = 8
	outs := make([]Outcome, len(tr.Records))
	// One token circulates the ring: goroutine g submits records g, g+8,
	// ... and passes the turn on when each Submit returns.
	turn := make([]chan struct{}, goroutines)
	for g := range turn {
		turn[g] = make(chan struct{}, 1)
	}
	turn[0] <- struct{}{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(tr.Records); i += goroutines {
				<-turn[g]
				outs[i] = cs.Submit(tr.Records[i].Arrival, tr.Records[i].Block)
				turn[(g+1)%goroutines] <- struct{}{}
			}
		}(g)
	}
	wg.Wait()

	got := violated(cs, outs)
	if len(want) == 0 {
		t.Error("expected some over-admissions at this epsilon (tradeoff should engage)")
	}
	if len(got) != len(want) {
		t.Errorf("ticket-ordered run violated %d windows, serial run %d", len(got), len(want))
	}
	for w := range want {
		if !got[w] {
			t.Errorf("window %d violated in the serial run only", w)
		}
	}
	if q, sq := cs.Q(), serial.Q(); q != sq {
		t.Errorf("controller Q = %.6f, serial run %.6f", q, sq)
	}
	gate := cs.stat
	if nt := gate.snap.Load().Intervals(); nt != gate.lastClosed.Load()+1 {
		t.Errorf("estimator folded %d intervals, lastClosed=%d", nt, gate.lastClosed.Load())
	}
}

// TestReorderSensitivity measures what TestStatisticalViolationBoundConcurrent
// rules out by submitting in ticket order: how the statistical engine's
// violations grow when arrivals reach it out of order. One goroutine submits
// the seed-13 trace at ε = 0.002 after seeded swaps of adjacent records
// (disjoint pairs, each swapped with the given probability) and each row's
// violated-window rate and late-request count must reproduce
// testdata/reorder_sensitivity.txt — a pinned curve, not a flaky ceiling.
// Row 0 is the in-order serial run. -update rewrites the file.
func TestReorderSensitivity(t *testing.T) {
	tr, err := trace.ExchangeLike(13, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := sampling.Estimate(goldenAlloc, sampling.Options{MaxK: 25, Trials: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.002
	// run submits the records in the given order and reports the violated
	// windows (ascending) and the requests finished past one service time.
	run := func(order []int) (violated []int64, windows, late int) {
		cs := newConcurrent(t, Config{Epsilon: eps, Table: tab})
		viol := map[int64]bool{}
		var last int64
		for _, i := range order {
			out := cs.Submit(tr.Records[i].Arrival, tr.Records[i].Block)
			w := cs.Window(out.Admitted)
			last = max(last, w)
			if out.Response() > service+1e-9 {
				viol[w] = true
				late++
			}
		}
		for w := range viol {
			violated = append(violated, w)
		}
		sort.Slice(violated, func(a, b int) bool { return violated[a] < violated[b] })
		return violated, int(last) + 1, late
	}
	inOrder := make([]int, len(tr.Records))
	for i := range inOrder {
		inOrder[i] = i
	}
	serial, _, _ := run(inOrder)

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# seed-13 ExchangeLike(0.05) trace, %d records, eps=%g, one goroutine; adjacent swaps seeded 1\n", len(tr.Records), eps)
	fmt.Fprintln(&buf, "swap_rate swaps violated_windows windows violated_rate late_requests")
	for _, rate := range []float64{0, 0.001, 0.004, 0.01} {
		order := slices.Clone(inOrder)
		rng := rand.New(rand.NewSource(1))
		swaps := 0
		for i := 0; i+1 < len(order); i++ {
			if rng.Float64() < rate {
				order[i], order[i+1] = order[i+1], order[i]
				swaps++
				i++
			}
		}
		violated, windows, late := run(order)
		if rate == 0 && !slices.Equal(violated, serial) {
			t.Fatalf("the unswapped row violated %d windows, the serial run %d", len(violated), len(serial))
		}
		fmt.Fprintf(&buf, "%g %d %d %d %.5f %d\n", rate, swaps, len(violated), windows, float64(len(violated))/float64(windows), late)
	}
	compareGolden(t, filepath.Join("testdata", "reorder_sensitivity.txt"), buf.Bytes())
}

// certainTable builds a P_k table that declares every request size
// optimally retrievable with certainty, so Q is 0 for every k and the
// statistical controller over-admits forever. Tests use it to hold the
// fast path in one window without the window-close or delay machinery
// engaging.
func certainTable(n, maxK int) *sampling.Table {
	p := make([]float64, maxK+1)
	for i := range p {
		p[i] = 1
	}
	return &sampling.Table{N: n, Trials: 1, P: p}
}

// TestConcurrentStatisticalZeroAllocFastPath pins the statistical admit
// fast path at zero heap allocations per request: window-close check
// (one atomic load), snapshot bound check (one atomic pointer load + the
// nk scan), sharded-counter reservation, and scheduler submit must all run
// allocation-free. A regression here (a snapshot copy per request, a
// boxed interface, a map insert on the hot path) fails the pin.
func TestConcurrentStatisticalZeroAllocFastPath(t *testing.T) {
	cs := newConcurrent(t, Config{Epsilon: 0.5, Table: certainTable(9, 25)})
	// Warm up: allocate window 0's counter shard entry and fill past S so
	// every measured submit takes the statistical (over-admission) branch.
	for i := 0; i < 2*cs.S(); i++ {
		cs.Submit(0, int64(i%64))
	}
	var i int64
	allocs := testing.AllocsPerRun(500, func() {
		out := cs.Submit(0, i%64)
		i++
		if out.Rejected {
			t.Fatal("unexpected rejection on the Delay fast path")
		}
	})
	if allocs != 0 {
		t.Errorf("statistical admit fast path: %.1f allocs/op, want 0", allocs)
	}
}

// TestConcurrentAccessors sanity-checks the read-only accessors the
// network layer relies on.
func TestConcurrentAccessors(t *testing.T) {
	cs := newConcurrent(t, Config{})
	if want := cs.Design().S(1); cs.S() != want {
		t.Errorf("S = %d, want %d", cs.S(), want)
	}
	if cs.IntervalMS() != cs.cfg.IntervalMS {
		t.Errorf("IntervalMS mismatch")
	}
	reps := cs.Replicas(100)
	if len(reps) != cs.Design().C {
		t.Errorf("Replicas(100) = %v, want %d devices", reps, cs.Design().C)
	}
	if q := cs.Q(); q != 0 {
		t.Errorf("deterministic Q = %g, want 0", q)
	}
	if w := cs.Window(0); w != 0 {
		t.Errorf("Window(0) = %d, want 0", w)
	}
}

// TestLedgerLightLoadBound runs 200,000 reads at one per 10 ms: no
// window ever fills, so the hint never moves, and only the arrival-window
// floor lets the ledger reclaim. Every read lands in a chunk of its own;
// the ledger must hold at most 2·shardPruneLen chunks per shard
// (2·512·64 = 65,536) instead of one per read for the life of the process.
func TestLedgerLightLoadBound(t *testing.T) {
	cs := newConcurrent(t, Config{})
	const reads, bound = 200_000, 2 * 512 * 64
	for i := 0; i < reads; i++ {
		if out := cs.Submit(float64(i)*10, int64(i)); out.Rejected {
			t.Fatalf("read %d rejected", i)
		}
	}
	if h := cs.ledger.frontier(); h != 0 {
		t.Fatalf("hint moved to %d under light load", h)
	}
	if n, _ := cs.ledger.Census(); n > bound {
		t.Errorf("ledger holds %d chunks after %d reads, bound %d", n, reads, bound)
	}
}

func BenchmarkConcurrentSubmit(b *testing.B) {
	cs := newConcurrent(b, Config{})
	var clock atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			arrival := float64(clock.Add(1)) * 0.005
			cs.Submit(arrival, i)
			i++
		}
	})
}

// BenchmarkTenantSubmit measures the tenant seam's cost on the submit
// hot path with a live two-tenant policy installed. untagged is the
// tenant-less traffic the refactor must not tax: tenant == 0 skips the
// gate entirely (not even the snapshot load), so benchgate holds it
// within ~5% of BenchmarkConcurrentSubmit's ns/op via a ratio directive
// — together with the absolute gate on BenchmarkConcurrentSubmit that
// pins tenant-less traffic to the pre-seam cost. tagged is the gated
// path (arrival limit + per-window cap acquisition before the ledger);
// it pays the O(1) gate and is gated absolutely, not by ratio.
// stat-tagged is BenchmarkConcurrentStatistical's system under the
// benchmark's gold/bronze policy: bronze's cap of 1 falls ever further
// behind the offered load, so a tenant walk that rescans the windows it
// has exhausted shows as a collapse against BenchmarkConcurrentStatistical,
// which a ratio directive gates.
func BenchmarkTenantSubmit(b *testing.B) {
	twoTenants := []admission.TenantSpec{
		{Name: "a", Reserve: 1, Weight: 3},
		{Name: "b", Reserve: 1, Weight: 1},
	}
	for _, bc := range []struct {
		name   string
		cfg    Config
		specs  []admission.TenantSpec
		tagged bool
	}{
		{"untagged", Config{}, twoTenants, false},
		{"tagged", Config{}, twoTenants, true},
		{"stat-tagged", Config{Epsilon: 0.05, Table: engineTable(b, Config{}, 2000)}, benchTenants, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cs := newConcurrent(b, bc.cfg)
			if err := cs.SetTenants(bc.specs); err != nil {
				b.Fatal(err)
			}
			var clock atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				i := int64(0)
				for pb.Next() {
					arrival := float64(clock.Add(1)) * 0.005
					var tenant int32
					if bc.tagged {
						tenant = int32(1 + i&1)
					}
					cs.SubmitTenant(arrival, i, tenant)
					i++
				}
			})
		})
	}
}

// BenchmarkConcurrentStatistical measures the parallel ε > 0 admission
// path under the same offered load shape as BenchmarkConcurrentSubmit, so
// the two are directly comparable: the acceptance bar for the statistical
// parallelization is staying within 2× of the deterministic path's
// throughput (the old implementation serialized every ε > 0 submit behind
// a global mutex).
func BenchmarkConcurrentStatistical(b *testing.B) {
	cs := newConcurrent(b, Config{Epsilon: 0.05, Table: engineTable(b, Config{}, 2000)})
	var clock atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			arrival := float64(clock.Add(1)) * 0.005
			cs.Submit(arrival, i)
			i++
		}
	})
}
