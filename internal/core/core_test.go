package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"flashqos/internal/design"
	"flashqos/internal/flashsim"
	"flashqos/internal/sampling"
	"flashqos/internal/trace"
)

const service = flashsim.DefaultReadLatency

func detSystem(t testing.TB) *System {
	t.Helper()
	s, err := New(Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewDefaults(t *testing.T) {
	s := detSystem(t)
	if s.S() != 5 {
		t.Errorf("S = %d, want 5 for (9,3,1) M=1", s.S())
	}
	if s.Design().N != 9 {
		t.Error("design not wired")
	}
}

func TestNewByParams(t *testing.T) {
	s, err := New(Config{N: 13, C: 3, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.S() != 14 {
		t.Errorf("S = %d, want 14 for M=2", s.S())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{N: 10, C: 3}); err == nil {
		t.Error("no construction for (10,3) should fail")
	}
	if _, err := New(Config{Design: design.Paper931(), M: -1}); err == nil {
		t.Error("negative M should fail")
	}
	if _, err := New(Config{Design: design.Paper931(), IntervalMS: 0.01}); err == nil {
		t.Error("interval shorter than service time should fail")
	}
	bad := &design.Design{N: 9, C: 3, Lambda: 1, Blocks: [][]int{{0, 1, 2}}}
	if _, err := New(Config{Design: bad}); err == nil {
		t.Error("invalid design should fail")
	}
}

func TestSubmitImmediate(t *testing.T) {
	s := detSystem(t)
	out := s.Submit(0, 0)
	if out.Delayed || out.Rejected {
		t.Errorf("first request should be immediate: %+v", out)
	}
	if math.Abs(out.Response()-service) > 1e-9 {
		t.Errorf("response = %g, want %g", out.Response(), service)
	}
}

func TestSubmitGuaranteeWithinS(t *testing.T) {
	// 5 distinct buckets at the same instant: every one must be served
	// immediately (idle replica always exists within the guarantee).
	s := detSystem(t)
	for i := int64(0); i < 5; i++ {
		out := s.Submit(0, i*7) // spread across design blocks
		if out.Rejected {
			t.Fatalf("request %d rejected", i)
		}
		if out.Response() > service+1e-9 {
			t.Errorf("request %d response %g exceeds service time", i, out.Response())
		}
	}
}

func TestSubmitDelaysOverCapacity(t *testing.T) {
	s := detSystem(t)
	delayed := 0
	for i := int64(0); i < 8; i++ {
		out := s.Submit(0, i)
		if out.Delayed {
			delayed++
			if out.Admitted < s.cfg.IntervalMS {
				t.Errorf("delayed request admitted at %g, want >= next window %g", out.Admitted, s.cfg.IntervalMS)
			}
		}
	}
	if delayed != 3 {
		t.Errorf("delayed %d of 8 requests, want 3 (S=5)", delayed)
	}
}

// TestSubmitSustainedOverload is the reason there is one engine
// configuration: 200 k reads arriving at ≈ 20× capacity on a plain New
// system must stay O(1) each. The sequential configuration this replaced
// walked the whole backlog of full windows per request (no frontier hint)
// and never pruned its window map, so the same run was quadratic — tens of
// seconds — and is what this bound would catch coming back. The guarantee
// must hold throughout: no window over S, every response one service time.
func TestSubmitSustainedOverload(t *testing.T) {
	s := detSystem(t)
	const (
		n    = 200_000
		step = 0.005 // ms between arrivals: 26.6 per 0.133 ms window vs S = 5
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		out := s.Submit(float64(i)*step, int64(i))
		if out.Rejected {
			t.Fatalf("request %d rejected under Delay policy", i)
		}
		if r := out.Response(); math.Abs(r-s.cfg.ServiceMS) > 1e-9 {
			t.Fatalf("request %d response %.9f != service time %.9f", i, r, s.cfg.ServiceMS)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("%d overloaded submissions took %v, want < 2s (per-request cost must not grow with the backlog)", n, d)
	}
	if got := s.MaxWindowCount(); got > s.S() {
		t.Errorf("a window holds %d admissions, S = %d", got, s.S())
	}
}

func TestSubmitDeviceBusyDelay(t *testing.T) {
	// Same bucket four times at once: only 3 replicas exist, so the fourth
	// must wait for a device to free up even though capacity S=5 remains.
	s := detSystem(t)
	var outs []Outcome
	for i := 0; i < 4; i++ {
		outs = append(outs, s.Submit(0, 0))
	}
	if outs[3].Delay <= 0 {
		t.Errorf("fourth duplicate should wait for a free replica: %+v", outs[3])
	}
	if outs[3].Response() > service+1e-9 {
		t.Error("after admission, response must still be one service time")
	}
}

func TestStatisticalAdmitsConflicts(t *testing.T) {
	// With a permissive epsilon, the duplicate-bucket conflict above is
	// admitted instead of delayed, at the cost of queueing.
	tab := &sampling.Table{N: 9, P: make([]float64, 30)}
	for i := range tab.P {
		tab.P[i] = 1
	}
	tab.P[9] = 0.75 // irrelevant here, realistic shape
	s, err := New(Config{Design: design.Paper931(), Epsilon: 0.5, Table: tab})
	if err != nil {
		t.Fatal(err)
	}
	var outs []Outcome
	for i := 0; i < 4; i++ {
		outs = append(outs, s.Submit(0, 0))
	}
	last := outs[3]
	if last.Delayed || last.Rejected {
		t.Errorf("statistical QoS should admit the conflicting request: %+v", last)
	}
	if last.Response() <= service {
		t.Error("admitted conflicting request should queue (response > service)")
	}
}

func TestRemapUsesFIM(t *testing.T) {
	s := detSystem(t)
	// Two blocks always requested together in the previous interval.
	var prev []trace.Record
	for i := 0; i < 10; i++ {
		at := float64(i) * 10
		prev = append(prev, trace.Record{Arrival: at, Block: 100}, trace.Record{Arrival: at + 0.01, Block: 200})
	}
	pairs := s.Remap(prev)
	if pairs < 1 {
		t.Fatalf("expected frequent pairs, got %d", pairs)
	}
	if !s.Mapper().Mapped(100) || !s.Mapper().Mapped(200) {
		t.Fatal("co-requested blocks not mapped")
	}
	r1, r2 := s.Replicas(100), s.Replicas(200)
	same := true
	for i := range r1 {
		if r1[i] != r2[i] {
			same = false
		}
	}
	if same {
		t.Error("co-requested blocks should map to different device sets")
	}
}

func TestRemapDisabled(t *testing.T) {
	s, err := New(Config{Design: design.Paper931(), DisableFIM: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := []trace.Record{{Arrival: 0, Block: 1}, {Arrival: 0.01, Block: 2}}
	if got := s.Remap(prev); got != 0 {
		t.Errorf("DisableFIM should mine nothing, got %d pairs", got)
	}
}

func TestReplayTraceSyntheticGuarantee(t *testing.T) {
	// The §V-C scenario at M=1: 5 blocks per 0.133 ms interval, batch
	// arrivals, interval-aligned design-theoretic retrieval. Every request
	// must meet the guarantee (response <= interval) with no delays.
	tr, err := trace.Synthetic(trace.SyntheticConfig{
		IntervalMS: 0.133, BlocksPerInterval: 5, TotalRequests: 5000, PoolSize: 36, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Design: design.Paper931(), DisableFIM: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.ReplayAligned(tr)
	if rep.Requests != 5000 {
		t.Fatalf("replayed %d requests, want 5000", rep.Requests)
	}
	if rep.MaxResponse > 0.133+1e-9 {
		t.Errorf("max response %g exceeds interval guarantee", rep.MaxResponse)
	}
	if rep.DelayedPct > 0.2 {
		t.Errorf("delayed %.2f%%, want ~0 (batches within S)", rep.DelayedPct)
	}
}

func TestReplayTraceM2Guarantee(t *testing.T) {
	// 14 blocks per 0.266 ms with M=2: responses within 2 accesses.
	tr, err := trace.Synthetic(trace.SyntheticConfig{
		IntervalMS: 0.266, BlocksPerInterval: 14, TotalRequests: 2800, PoolSize: 36, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Design: design.Paper931(), M: 2, IntervalMS: 0.266, DisableFIM: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.ReplayAligned(tr)
	if rep.MaxResponse > 0.266+1e-9 {
		t.Errorf("max response %g exceeds 2-access guarantee", rep.MaxResponse)
	}
	if rep.AvgResponse <= service || rep.AvgResponse >= 2*service {
		t.Errorf("avg response %g outside (1,2) access range", rep.AvgResponse)
	}
}

func TestReplayTraceOnlineFlatResponse(t *testing.T) {
	// Online deterministic QoS: post-admission response is always exactly
	// one service time (the flat bottom line of Figs 8–9).
	tr, err := trace.ExchangeLike(7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := detSystem(t)
	rep := s.ReplayTrace(tr)
	if rep.Requests < 1000 {
		t.Fatalf("trace too small: %d", rep.Requests)
	}
	if math.Abs(rep.MaxResponse-service) > 1e-9 {
		t.Errorf("max response %g, want flat %g", rep.MaxResponse, service)
	}
	if rep.DelayedPct <= 0 {
		t.Error("expected some delayed requests under bursty load")
	}
	if rep.AvgDelay <= 0 {
		t.Error("delayed requests should have positive delay")
	}
}

func TestReplayOriginalExceedsGuarantee(t *testing.T) {
	tr, err := trace.ExchangeLike(7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayOriginal(tr, 9, service)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxResponse <= service+1e-9 {
		t.Error("original stand should violate the guarantee under bursts")
	}
	if rep.AvgResponse < service {
		t.Error("avg response below service time is impossible")
	}
}

func TestReplayOriginalValidation(t *testing.T) {
	if _, err := ReplayOriginal(&trace.Trace{}, 0, 1); err == nil {
		t.Error("devices=0 should fail")
	}
}

// TestReplayOriginalPinned pins the original-stand replay behind Figs 8/9
// to exact floats on a seeded trace, so any change to the device model,
// the completion order or the per-interval bucketing shows.
func TestReplayOriginalPinned(t *testing.T) {
	tr, err := trace.ExchangeLike(7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayOriginal(tr, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "exchange-like (original)" || rep.Requests != 10394 ||
		rep.AvgResponse != 0.14591926529239824 || rep.MaxResponse != 0.6025792479902066 ||
		len(rep.Intervals) != 96 {
		t.Fatalf("report %q: %d requests, avg %v, max %v, %d intervals; want 10394, 0.14591926529239824, 0.6025792479902066, 96",
			rep.Name, rep.Requests, rep.AvgResponse, rep.MaxResponse, len(rep.Intervals))
	}
	for _, want := range []IntervalReport{
		{Index: 0, Requests: 18, AvgResponse: 0.13709994935660733, MaxResponse: 0.21518008841892744},
		{Index: 29, Requests: 174, AvgResponse: 0.14734705001496004, MaxResponse: 0.542587563099346},
		{Index: 95, Requests: 9, AvgResponse: 0.13250700000003235, MaxResponse: 0.13250700000003235},
	} {
		if got := rep.Intervals[want.Index]; got != want {
			t.Errorf("interval %d = %+v, want %+v", want.Index, got, want)
		}
	}
}

// TestReplayOriginalDeviceRange checks a negative trace device is answered
// with an error naming the range, not a panic inside flashsim.
func TestReplayOriginalDeviceRange(t *testing.T) {
	tr := &trace.Trace{Name: "bad", IntervalMS: 10, Records: []trace.Record{
		{Arrival: 0, Block: 1, Device: 2},
		{Arrival: 1, Block: 2, Device: -1},
	}}
	_, err := ReplayOriginal(tr, 9, 0)
	if err == nil || !strings.Contains(err.Error(), "device -1 out of range [0,9)") {
		t.Fatalf("ReplayOriginal with device -1: err %v, want a device out of range error", err)
	}
}

func TestStatisticalReducesDelays(t *testing.T) {
	tr, err := trace.ExchangeLike(11, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	det := detSystem(t)
	detRep := det.ReplayTrace(tr)

	tab := &sampling.Table{N: 9, P: make([]float64, 30)}
	for i := range tab.P {
		tab.P[i] = 1 // permissive: everything admitted when over capacity
	}
	st, err := New(Config{Design: design.Paper931(), Epsilon: 0.4, Table: tab})
	if err != nil {
		t.Fatal(err)
	}
	stRep := st.ReplayTrace(tr)
	if stRep.DelayedPct >= detRep.DelayedPct {
		t.Errorf("statistical delayed%% %.2f should be below deterministic %.2f",
			stRep.DelayedPct, detRep.DelayedPct)
	}
	if stRep.AvgResponse < detRep.AvgResponse {
		t.Errorf("statistical avg response %.4f should be >= deterministic %.4f (queueing allowed)",
			stRep.AvgResponse, detRep.AvgResponse)
	}
}

func TestAlignedDelaysExceedOnline(t *testing.T) {
	// Fig 12: interval alignment adds delay that online retrieval avoids.
	tr, err := trace.TPCELike(5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	on, err := New(Config{Design: design.Paper1331()})
	if err != nil {
		t.Fatal(err)
	}
	onRep := on.ReplayTrace(tr)
	al, err := New(Config{Design: design.Paper1331()})
	if err != nil {
		t.Fatal(err)
	}
	alRep := al.ReplayAligned(tr)
	if alRep.AvgDelayAll <= onRep.AvgDelayAll {
		t.Errorf("aligned avg delay %.4f should exceed online %.4f (over all requests)",
			alRep.AvgDelayAll, onRep.AvgDelayAll)
	}
	if alRep.DelayedPct <= onRep.DelayedPct {
		t.Errorf("aligned delayed%% %.2f should exceed online %.2f", alRep.DelayedPct, onRep.DelayedPct)
	}
}

func TestResetClearsState(t *testing.T) {
	s := detSystem(t)
	for i := int64(0); i < 8; i++ {
		s.Submit(0, i)
	}
	s.Reset()
	out := s.Submit(0, 0)
	if out.Delayed {
		t.Error("after Reset the first request should be immediate")
	}
}

func TestFIMMatchReported(t *testing.T) {
	tr, err := trace.TPCELike(9, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Design: design.Paper1331()})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.ReplayTrace(tr)
	if len(rep.Intervals) != 6 {
		t.Fatalf("got %d intervals, want 6", len(rep.Intervals))
	}
	if rep.Intervals[0].FIMMatchPct != 0 {
		t.Error("first interval has no mining history; match must be 0")
	}
	// TPC-E-like: strong hot-set persistence → high match afterwards.
	var mean float64
	for _, iv := range rep.Intervals[1:] {
		mean += iv.FIMMatchPct
	}
	mean /= float64(len(rep.Intervals) - 1)
	if mean < 50 {
		t.Errorf("TPC-E mean FIM match %.1f%%, want high (paper: ~87%%)", mean)
	}
}

func BenchmarkSubmit(b *testing.B) {
	s, err := New(Config{Design: design.Paper931()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(float64(i)*0.05, int64(i%1000))
	}
}

func BenchmarkReplayExchangeTiny(b *testing.B) {
	tr, err := trace.ExchangeLike(1, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := New(Config{Design: design.Paper931()})
		s.ReplayTrace(tr)
	}
}

func TestSubmitWriteUpdatesAllReplicas(t *testing.T) {
	s := detSystem(t)
	out := s.SubmitWrite(0, 5)
	if out.Rejected || out.Delayed {
		t.Fatalf("first write should be immediate: %+v", out)
	}
	// The write occupies all three replicas until WriteServiceMS.
	if math.Abs(out.Response()-flashsim.DefaultWriteLatency) > 1e-9 {
		t.Errorf("write response %.4f, want %.4f", out.Response(), flashsim.DefaultWriteLatency)
	}
	// A read of the same block right after must wait for a replica.
	rd := s.Submit(0.001, 5)
	if !rd.Delayed {
		t.Error("read during in-flight write to all replicas should be delayed")
	}
	if rd.Admitted < flashsim.DefaultWriteLatency-1e-9 {
		t.Errorf("read admitted at %.4f, want >= write completion %.4f", rd.Admitted, flashsim.DefaultWriteLatency)
	}
}

func TestSubmitWriteConsumesCSlots(t *testing.T) {
	// S=5, c=3: one write leaves room for only 2 more slots in the window.
	s := detSystem(t)
	s.SubmitWrite(0, 0)
	r1 := s.Submit(0, 7) // distinct block, idle devices exist
	r2 := s.Submit(0, 14)
	r3 := s.Submit(0, 21)
	if r1.Delayed || r2.Delayed {
		t.Errorf("two reads should fit after one write: %+v %+v", r1, r2)
	}
	if !r3.Delayed {
		t.Error("third read should exceed the window budget (3+3 > 5)")
	}
}

// TestStatisticalViolationBound checks the statistical QoS contract: the
// fraction of T-windows whose admitted requests were not served within the
// deterministic guarantee stays bounded by epsilon (plus sampling slack).
// Violations only happen on over-admitted (statistical-path) requests, and
// the controller admits those only while Q < epsilon.
func TestStatisticalViolationBound(t *testing.T) {
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
	// Mid-range epsilon from the active region.
	const eps = 0.002
	sys, err := New(Config{Design: design.Paper931(), Epsilon: eps, Table: tab})
	if err != nil {
		t.Fatal(err)
	}
	violWindows := map[int64]bool{}
	var lastWindow int64
	for _, r := range tr.Records {
		out := sys.Submit(r.Arrival, r.Block)
		w := int64(out.Admitted / 0.133)
		if w > lastWindow {
			lastWindow = w
		}
		if out.Response() > service+1e-9 {
			violWindows[w] = true
		}
	}
	if lastWindow == 0 {
		t.Fatal("no windows observed")
	}
	// The contract the mechanism actually promises: the modeled violation
	// probability Q (over all encountered intervals, empty ones included,
	// matching the paper's N_t) stays below epsilon. Realized violations
	// can exceed Q because the request-size model does not see which
	// blocks conflict — the paper's formula shares this approximation —
	// but they must stay the same order of magnitude.
	if q := sys.Q(); q >= eps {
		t.Errorf("controller Q = %.5f, must stay below epsilon %.3f", q, eps)
	}
	rate := float64(len(violWindows)) / float64(lastWindow+1)
	if rate > 0.02 {
		t.Errorf("realized violation rate %.5f implausibly high for epsilon %.3f", rate, eps)
	}
	if len(violWindows) == 0 {
		t.Error("expected some over-admissions at this epsilon (tradeoff should engage)")
	}
}

func TestSubmitBatchJointOptimal(t *testing.T) {
	s := detSystem(t)
	// Five blocks whose first copies all collide on device 0: the joint
	// batch must remap to one access (per-request OLR might not).
	blocks := []int64{0, 3, 6, 9, 27} // design rows with first copy 0 under modulo
	outs := s.SubmitBatch(0, blocks, nil)
	if len(outs) != 5 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	for i, o := range outs {
		if o.Rejected || o.Delayed {
			t.Errorf("batch request %d not admitted cleanly: %+v", i, o)
		}
		if o.Response() > service+1e-9 {
			t.Errorf("batch request %d response %.6f exceeds one access", i, o.Response())
		}
	}
}

func TestSubmitBatchOverflow(t *testing.T) {
	s := detSystem(t)
	blocks := make([]int64, 8)
	for i := range blocks {
		blocks[i] = int64(i)
	}
	outs := s.SubmitBatch(0, blocks, nil)
	delayed := 0
	for _, o := range outs {
		if o.Delayed {
			delayed++
		}
	}
	if delayed != 3 {
		t.Errorf("batch of 8 on S=5: %d delayed, want 3", delayed)
	}
	if s.SubmitBatch(0, nil, nil) != nil {
		t.Error("empty batch should return nil")
	}
}

// Property: under random interleavings of reads, writes and batches, the
// deterministic system never admits more than S slots per window, never
// rejects under the delay policy, and every admitted read's post-admission
// response is exactly one service time (writes: one program time).
func TestQuickCoreInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(Config{Design: design.Paper931(), DisableFIM: true})
		if err != nil {
			return false
		}
		tNow := 0.0
		winSlots := map[int64]int{}
		window := func(at float64) int64 { return int64(at/0.133 + 1e-6) }
		for i := 0; i < 120; i++ {
			tNow += rng.Float64() * 0.1
			switch rng.Intn(3) {
			case 0:
				out := s.Submit(tNow, rng.Int63n(500))
				if out.Rejected || out.Admitted < tNow-1e-9 {
					return false
				}
				if math.Abs(out.Response()-service) > 1e-9 {
					return false
				}
				winSlots[window(out.Admitted)]++
			case 1:
				out := s.SubmitWrite(tNow, rng.Int63n(500))
				if out.Rejected {
					return false
				}
				if math.Abs(out.Response()-flashsim.DefaultWriteLatency) > 1e-9 {
					return false
				}
				winSlots[window(out.Admitted)] += 3
			case 2:
				n := 1 + rng.Intn(4)
				blocks := make([]int64, n)
				for j := range blocks {
					blocks[j] = rng.Int63n(500)
				}
				for _, out := range s.SubmitBatch(tNow, blocks, nil) {
					if out.Rejected {
						return false
					}
					winSlots[window(out.Admitted)]++
				}
			}
		}
		for _, slots := range winSlots {
			if slots > 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReplayTraceMixedWrites(t *testing.T) {
	tr, err := trace.Generate(trace.WorkloadConfig{
		Name: "mixed", Intervals: 4, IntervalMS: 50,
		RatePerSec: []float64{4000, 4000, 4000, 4000},
		Volumes:    9, Universe: 2000, HotBlocks: 50,
		HotFrac: 0.5, HotCarry: 0.5, ZipfS: 1.3, WriteFrac: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := detSystem(t)
	rep := s.ReplayTrace(tr)
	if rep.WriteRequests == 0 {
		t.Fatal("no writes replayed")
	}
	frac := float64(rep.WriteRequests) / float64(rep.WriteRequests+rep.Requests)
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("write fraction %.2f, want ~0.2", frac)
	}
	// Reads keep the flat guarantee; writes take the program time.
	if rep.MaxResponse > service+1e-9 {
		t.Errorf("read max response %.4f broke the guarantee", rep.MaxResponse)
	}
	if rep.WriteAvgResp < flashsim.DefaultWriteLatency-1e-9 {
		t.Errorf("write avg response %.4f below program time", rep.WriteAvgResp)
	}
	// Writes occupying all replicas inflate read delays vs a read-only run.
	reads := &trace.Trace{Name: "ro", IntervalMS: tr.IntervalMS}
	for _, r := range tr.Records {
		if !r.Write {
			reads.Records = append(reads.Records, r)
		}
	}
	s2 := detSystem(t)
	ro := s2.ReplayTrace(reads)
	if rep.DelayedPct < ro.DelayedPct {
		t.Errorf("mixed read delays %.2f%% below read-only %.2f%% (writes should add contention)",
			rep.DelayedPct, ro.DelayedPct)
	}
}
