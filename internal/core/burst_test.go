package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"flashqos/internal/admission"
	"flashqos/internal/design"
)

// goldenBurstTenants is the live two-tenant policy of the tenant-tagged
// burst transcript sections: on the (9,3,1)/M=1 array (S = 5) tenant a can
// fit a c = 3 slot write under its cap, tenant b cannot, and b's arrival
// limit trips in dense windows — so every gate branch appears.
var goldenBurstTenants = []admission.TenantSpec{
	{Name: "a", Reserve: 2, Weight: 3},
	{Name: "b", Reserve: 1, Limit: 4, Weight: 1},
}

// goldenOverloadTenants is the policy of the sustained-overload sections:
// on S = 5, a (cap 3) fits a c = 3 write, b has no reservation (cap 1 from
// the surplus), and c's arrival limit trips in every window.
var goldenOverloadTenants = []admission.TenantSpec{
	{Name: "a", Reserve: 2, Weight: 3},
	{Name: "b", Weight: 1},
	{Name: "c", Reserve: 1, Limit: 3, Weight: 1},
}

// goldenOverloadWorkload is the sustained-overload counterpart of
// goldenWorkload: 2400 requests (~1/8 writes) over 100 T-windows, about six
// times the S = 5 slots those windows hold, with tags drawn evenly from
// untagged and the three goldenOverloadTenants. Every tenant's backlog grows
// for the whole run, so a cap-exhausted tenant's window walk is exercised
// hundreds of windows deep.
func goldenOverloadWorkload() ([]goldenRequest, []int32) {
	rng := rand.New(rand.NewSource(43))
	reqs := make([]goldenRequest, 2400)
	arrivals := make([]float64, len(reqs))
	for i := range arrivals {
		arrivals[i] = rng.Float64() * 13.3 // ms: 100 windows of the default T
	}
	sort.Float64s(arrivals)
	tags := make([]int32, len(reqs))
	for i := range reqs {
		reqs[i] = goldenRequest{arrival: arrivals[i], block: int64(rng.Intn(4000)), write: rng.Intn(8) == 0}
		tags[i] = int32(rng.Intn(4))
	}
	return reqs, tags
}

// goldenBurstRun drives a golden workload chopped into pseudo-random
// bursts (1–12 requests sharing the first request's arrival) through one
// system and appends every field of every outcome. With burst set the
// requests go through SubmitBurst; otherwise through the per-request verbs
// in the same order with the same arrivals. tags, when non-nil, is the
// tenant index of each request. It returns the largest admission lag,
// Admitted − arrival, in T-windows.
func goldenBurstRun(buf *bytes.Buffer, label string, sys *System, reqs []goldenRequest, tags []int32, burst bool) (maxLag float64) {
	fmt.Fprintf(buf, "== %s ==\n", label)
	rng := rand.New(rand.NewSource(7))
	var sc BurstScratch
	batch := make([]BurstReq, 0, 12)
	for i := 0; i < len(reqs); {
		n := 1 + rng.Intn(12)
		if i+n > len(reqs) {
			n = len(reqs) - i
		}
		arrival := reqs[i].arrival
		batch = batch[:0]
		for j, r := range reqs[i : i+n] {
			br := BurstReq{Block: r.block, Write: r.write}
			if tags != nil {
				br.Tenant = tags[i+j]
			}
			batch = append(batch, br)
		}
		var outs []Outcome
		if burst {
			outs = sys.SubmitBurst(arrival, batch, &sc)
		} else {
			outs = make([]Outcome, n)
			for j, br := range batch {
				switch {
				case br.Write && br.Tenant != 0:
					outs[j] = sys.SubmitWriteTenant(arrival, br.Block, br.Tenant)
				case br.Write:
					outs[j] = sys.SubmitWrite(arrival, br.Block)
				case br.Tenant != 0:
					outs[j] = sys.SubmitTenant(arrival, br.Block, br.Tenant)
				default:
					outs[j] = sys.Submit(arrival, br.Block)
				}
			}
		}
		for j, out := range outs {
			br := batch[j]
			fmt.Fprintf(buf, "%4d arr=%.9f blk=%d w=%v t=%d -> rej=%v unav=%v over=%v ten=%d dev=%d adm=%.9f start=%.9f fin=%.9f delay=%.9f delayed=%v\n",
				i+j, arrival, br.Block, br.Write, br.Tenant, out.Rejected, out.Unavailable, out.OverLimit, out.Tenant,
				out.Device, out.Admitted, out.Start, out.Finish, out.Delay, out.Delayed)
			if lag := (out.Admitted - arrival) / sys.IntervalMS(); lag > maxLag {
				maxLag = lag
			}
		}
		i += n
	}
	if sys.stat != nil {
		fmt.Fprintf(buf, "Q=%.12f\n", sys.Q())
	}
	if tags != nil {
		for _, spec := range sys.TenantSpecs() {
			c, _ := sys.TenantCounters(spec.Name)
			fmt.Fprintf(buf, "tenant %s admitted=%d rejected=%d overlimit=%d deficit=%d\n",
				spec.Name, c.Admitted, c.Rejected, c.OverLimit, c.Deficit)
		}
	}
	return maxLag
}

// TestSubmitBurstEquivalence drives the burst-chopped seed-42 workload
// through SubmitBurst on one system and through the per-request verbs on an
// identically configured one — unmasked, a degraded mask, ε = 0.05, and
// tenant-tagged under a live two-tenant policy — and requires the two
// transcripts to match each other and testdata/golden_burst_seed42.txt byte
// for byte. That file was generated by the per-request verbs of the last
// commit that still had a separate per-request scan (see CHANGES.md), so it
// pins the one merged scan to both of its ancestors: grouped burst credit,
// the held scheduler lock and the per-burst snapshots are invisible in the
// outcomes, tenant gauges and the final Q. The overload/ sections were
// added later, generated the same way by the commit before the per-tenant
// scan frontier: three tenants at about six times capacity, so
// they pin that every window a tenant walk skips is one the full walk
// would have failed in. Every section keeps each request within 1000
// T-windows of its arrival, well inside the tenant counters' retention, so
// no byte depends on counter pruning. Each variant runs twice: the two
// systems one after the other, and both at once from two goroutines (the
// /concurrent subtests) — systems share only immutable state, as the shards
// of an array do, so under -race this is also the proof that a sibling
// under load perturbs nothing. -update rewrites the file from the serial
// per-request run.
func TestSubmitBurstEquivalence(t *testing.T) {
	reqs := goldenWorkload()
	tagRNG := rand.New(rand.NewSource(11))
	tags := make([]int32, len(reqs))
	for i := range tags {
		tags[i] = int32(tagRNG.Intn(3)) // 0 = untenanted rider
	}
	over, overTags := goldenOverloadWorkload()
	tab := goldenStatTable(t)
	tenanted := func(sys *System, specs []admission.TenantSpec) *System {
		if err := sys.SetTenants(specs); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	variants := []struct {
		name  string
		reqs  []goldenRequest
		tags  []int32
		build func() *System
	}{
		{"delay", reqs, nil, func() *System { return goldenSystem(t, false) }},
		{"delay/masked", reqs, nil, func() *System { return goldenSystem(t, true) }},
		{"stat/eps=0.05", reqs, nil, func() *System { return goldenStatSystem(t, 0.05, tab) }},
		{"tenant/delay", reqs, tags, func() *System {
			return tenanted(goldenSystem(t, false), goldenBurstTenants)
		}},
		{"tenant/stat/eps=0.05", reqs, tags, func() *System {
			return tenanted(goldenStatSystem(t, 0.05, tab), goldenBurstTenants)
		}},
		{"overload/tenant/delay", over, overTags, func() *System {
			return tenanted(goldenSystem(t, false), goldenOverloadTenants)
		}},
		{"overload/tenant/stat/eps=0.05", over, overTags, func() *System {
			return tenanted(goldenStatSystem(t, 0.05, tab), goldenOverloadTenants)
		}},
	}
	var golden bytes.Buffer
	for _, v := range variants {
		var serial []byte
		for _, concurrent := range []bool{false, true} {
			name := v.name
			if concurrent {
				name += "/concurrent"
			}
			t.Run(name, func(t *testing.T) {
				var perRequest, burst bytes.Buffer
				burstSys, refSys := v.build(), v.build()
				if concurrent {
					// The two systems run at once, the way shards do: they
					// share the allocator and the P_k table (goldenAlloc,
					// tab) and nothing else, so neither transcript may move.
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						goldenBurstRun(&burst, v.name, burstSys, v.reqs, v.tags, true)
					}()
					goldenBurstRun(&perRequest, v.name, refSys, v.reqs, v.tags, false)
					wg.Wait()
					if !bytes.Equal(perRequest.Bytes(), serial) {
						t.Fatal("per-request transcript changed when a sibling system ran concurrently")
					}
				} else {
					if lag := goldenBurstRun(&perRequest, v.name, refSys, v.reqs, v.tags, false); lag >= 1000 {
						t.Fatalf("a request was admitted %.0f windows after its arrival; the section must stay under 1000", lag)
					}
					goldenBurstRun(&burst, v.name, burstSys, v.reqs, v.tags, true)
					serial = perRequest.Bytes()
					golden.Write(serial)
				}
				if !bytes.Equal(burst.Bytes(), perRequest.Bytes()) {
					got := bytes.Split(burst.Bytes(), []byte("\n")) // same line count: one per request
					for i, want := range bytes.Split(perRequest.Bytes(), []byte("\n")) {
						if !bytes.Equal(got[i], want) {
							t.Fatalf("SubmitBurst diverges from the per-request verbs at line %d:\nburst       %s\nper-request %s", i+1, got[i], want)
						}
					}
				}
			})
		}
	}
	compareGolden(t, filepath.Join("testdata", "golden_burst_seed42.txt"), golden.Bytes())
}

// TestSubmitBurstGolden replays the committed seed-42 transcript through
// SubmitBurst (size-1 bursts at each request's own arrival): the burst
// entry point must reproduce testdata/golden_seed42.txt byte for byte,
// pinning it to the same committed behavior as the per-request verbs.
func TestSubmitBurstGolden(t *testing.T) {
	reqs := goldenWorkload()
	var golden bytes.Buffer
	for _, v := range goldenVariants {
		goldenRun(&golden, v.name, &burstGoldenAdapter{sub: goldenSystem(t, v.masked)}, reqs)
	}
	compareGolden(t, filepath.Join("testdata", "golden_seed42.txt"), golden.Bytes())
}

// burstGoldenAdapter presents SubmitBurst as the per-request submitter
// interface so goldenRun can drive it.
type burstGoldenAdapter struct {
	sub *System
	sc  BurstScratch
	one [1]BurstReq
}

func (a *burstGoldenAdapter) Submit(arrival float64, block int64) Outcome {
	a.one[0] = BurstReq{Block: block}
	return a.sub.SubmitBurst(arrival, a.one[:], &a.sc)[0]
}

func (a *burstGoldenAdapter) SubmitWrite(arrival float64, block int64) Outcome {
	a.one[0] = BurstReq{Block: block, Write: true}
	return a.sub.SubmitBurst(arrival, a.one[:], &a.sc)[0]
}

// TestSubmitBurstEmpty pins the edge cases: an empty burst admits nothing
// and returns an empty slice, with or without scratch.
func TestSubmitBurstEmpty(t *testing.T) {
	cs, err := New(Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	if outs := cs.SubmitBurst(0, nil, nil); len(outs) != 0 {
		t.Fatalf("empty burst returned %d outcomes", len(outs))
	}
	var sc BurstScratch
	if outs := cs.SubmitBurst(0, []BurstReq{}, &sc); len(outs) != 0 {
		t.Fatalf("empty burst with scratch returned %d outcomes", len(outs))
	}
	if out := cs.Submit(0, 1); out.Rejected {
		t.Fatal("admission state disturbed by empty bursts")
	}
}

// TestConcurrentBurstAllocFree pins the steady-state allocation count of
// SubmitBurst with a reused scratch to zero. Every run
// admits one fresh window inside a single pre-warmed counter chunk, so the
// ledger fast path (chunk cache hit) is the one measured — the occasional
// chunk-boundary allocation is amortized O(1/chunkSize) and excluded by
// construction.
func TestConcurrentBurstAllocFree(t *testing.T) {
	cs, err := New(Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	interval := cs.IntervalMS()
	var sc BurstScratch
	// 2 reads + 1 write fill S(1) = 5 slots exactly: one window per run.
	reqs := []BurstReq{{Block: 1}, {Block: 2, Write: true}, {Block: 3}}
	w := int64(chunkSize) // chunk 1: warm-up call creates and caches it
	run := func() {
		outs := cs.SubmitBurst(float64(w)*interval, reqs, &sc)
		for _, o := range outs {
			if o.Rejected {
				t.Fatal("burst rejected in a fresh window")
			}
		}
		w++
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("SubmitBurst allocates %.2f per run on warm scratch, want 0", n)
	}
}

// TestConcurrentBatchAllocFree pins SubmitBatch with a
// reused scratch to zero steady-state allocations, same construction as
// the burst pin.
func TestConcurrentBatchAllocFree(t *testing.T) {
	cs, err := New(Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	interval := cs.IntervalMS()
	var sc BatchScratch
	blocks := []int64{1, 2, 3, 4}
	w := int64(chunkSize)
	run := func() {
		outs := cs.SubmitBatch(float64(w)*interval, blocks, &sc)
		for _, o := range outs {
			if o.Rejected {
				t.Fatal("batch rejected in a fresh window")
			}
		}
		w++
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("SubmitBatch allocates %.2f per run on warm scratch, want 0", n)
	}
}
