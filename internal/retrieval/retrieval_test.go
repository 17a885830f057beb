package retrieval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flashqos/internal/decluster"
	"flashqos/internal/design"
	"flashqos/internal/maxflow"
)

const service = 0.132507 // ms, one 8KB flash read (paper §V-A)

func dt931(t testing.TB) *decluster.DesignTheoretic {
	t.Helper()
	a, err := decluster.NewDesignTheoretic(design.Paper931())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGreedyEmpty(t *testing.T) {
	r := NewScheduler().Greedy(nil, 9)
	if r.Accesses != 0 || len(r.Assignment) != 0 {
		t.Error("empty request should cost 0")
	}
}

func TestGreedySingle(t *testing.T) {
	r := NewScheduler().Greedy([][]int{{3, 4, 5}}, 9)
	if r.Accesses != 1 || r.Assignment[0] != 3 {
		t.Errorf("single block should stay on first copy: %+v", r)
	}
}

func TestGreedyRemaps(t *testing.T) {
	// Three blocks whose first copies collide on device 0 but have disjoint
	// alternates — greedy must spread them into one access.
	replicas := [][]int{{0, 1, 2}, {0, 3, 6}, {0, 4, 8}}
	r := NewScheduler().Greedy(replicas, 9)
	if r.Accesses != 1 {
		t.Errorf("greedy did not remap: %d accesses, want 1", r.Accesses)
	}
	seen := map[int]bool{}
	for i, d := range r.Assignment {
		ok := false
		for _, rd := range replicas[i] {
			if rd == d {
				ok = true
			}
		}
		if !ok {
			t.Errorf("block %d assigned off-replica device %d", i, d)
		}
		if seen[d] {
			t.Errorf("device %d reused within one access", d)
		}
		seen[d] = true
	}
}

func TestGreedyPaperT3(t *testing.T) {
	// Paper Fig 5, period T3: blocks (1,4,7), (1,3,8), (0,5,7), (0,1,2) —
	// 4 blocks, initial mapping needs 2 accesses (two blocks start on 1,
	// two on 0), remapping reaches 1 access.
	replicas := [][]int{{1, 4, 7}, {1, 3, 8}, {0, 5, 7}, {0, 1, 2}}
	r := NewScheduler().Greedy(replicas, 9)
	if r.Accesses != 1 {
		t.Errorf("T3 request should remap to 1 access, got %d", r.Accesses)
	}
}

func TestOptimalMatchesMaxflow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dt := dt931(t)
	for trial := 0; trial < 1000; trial++ {
		b := 1 + rng.Intn(30)
		replicas := make([][]int, b)
		for i := range replicas {
			replicas[i] = dt.Replicas(rng.Intn(36))
		}
		opt := Optimal(replicas, 9)
		want, _ := maxflow.MinAccesses(replicas, 9)
		if opt.Accesses != want {
			t.Fatalf("Optimal = %d, maxflow = %d (b=%d)", opt.Accesses, want, b)
		}
		// Assignment must respect loads.
		load := make([]int, 9)
		for i, d := range opt.Assignment {
			ok := false
			for _, rd := range replicas[i] {
				if rd == d {
					ok = true
				}
			}
			if !ok {
				t.Fatal("off-replica assignment")
			}
			load[d]++
		}
		for _, l := range load {
			if l > opt.Accesses {
				t.Fatal("assignment exceeds claimed access count")
			}
		}
	}
}

// TestTableII reproduces the structure of paper Table II for the (9,3,1)
// design: DTR(S)=1 for S=1..5, DTR(6)=2; OLR matches except sizes 4 and 5,
// where sequential assignment may need 2 accesses ("1 or 2").
func TestTableII(t *testing.T) {
	dt := dt931(t)
	rng := rand.New(rand.NewSource(17))
	sawTwo := map[int]bool{}
	for trial := 0; trial < 5000; trial++ {
		for s := 1; s <= 6; s++ {
			perm := rng.Perm(36)
			replicas := make([][]int, s)
			for i := range replicas {
				replicas[i] = dt.Replicas(perm[i])
			}
			dtr := Optimal(replicas, 9).Accesses
			olr := SequentialAccesses(replicas, 9)
			switch {
			case s <= 5 && dtr != 1:
				t.Fatalf("DTR(%d) = %d, want 1", s, dtr)
			case s == 6 && dtr > 2:
				t.Fatalf("DTR(6) = %d, want <= 2", dtr)
			}
			switch {
			case s <= 3 && olr != 1:
				t.Fatalf("OLR(%d) = %d, want 1", s, olr)
			case (s == 4 || s == 5) && olr > 2:
				t.Fatalf("OLR(%d) = %d, want 1 or 2", s, olr)
			case s == 6 && olr > 2:
				t.Fatalf("OLR(6) = %d, want 2", olr)
			}
			if olr == 2 && s <= 5 {
				sawTwo[s] = true
			}
		}
	}
	// Table II says OLR(4) and OLR(5) are "1 or 2": both outcomes occur.
	if !sawTwo[4] || !sawTwo[5] {
		t.Errorf("expected OLR in {1,2} to actually hit 2 for sizes 4,5; saw %v", sawTwo)
	}
	if sawTwo[1] || sawTwo[2] || sawTwo[3] {
		t.Errorf("OLR should always be 1 for sizes 1-3; saw %v", sawTwo)
	}
}

func TestOnlineIdlePreferred(t *testing.T) {
	o := NewOnline(9, service)
	c1 := o.Submit(0, []int{0, 1, 2})
	if c1.Device != 0 || c1.Start != 0 || c1.Finish != service {
		t.Errorf("first request: %+v", c1)
	}
	// Second request sharing replica 0 must pick an idle device.
	c2 := o.Submit(0, []int{0, 3, 6})
	if c2.Device == 0 {
		t.Error("online picked busy device over idle one")
	}
	if c2.Start != 0 {
		t.Errorf("second request should start immediately, got %g", c2.Start)
	}
}

func TestOnlineEarliestFinish(t *testing.T) {
	o := NewOnline(3, 1.0)
	o.Submit(0, []int{0}) // dev0 busy till 1
	o.Submit(0, []int{1}) // dev1 busy till 1
	o.Submit(0, []int{1}) // dev1 busy till 2
	o.Submit(0, []int{2}) // dev2 busy till 1
	o.Submit(0, []int{2}) // dev2 busy till 2
	o.Submit(0, []int{2}) // dev2 busy till 3
	// Now replicas {1,2}: dev1 free at 2, dev2 free at 3 → choose dev1.
	c := o.Submit(0.5, []int{2, 1})
	if c.Device != 1 {
		t.Errorf("expected earliest-finish device 1, got %d", c.Device)
	}
	if c.Start != 2 || c.Finish != 3 {
		t.Errorf("start/finish = %g/%g, want 2/3", c.Start, c.Finish)
	}
	if got := c.Finish - 0.5; math.Abs(got-2.5) > 1e-12 {
		t.Errorf("response = %g, want 2.5", got)
	}
}

func TestOnlineFCFSWithinDevice(t *testing.T) {
	o := NewOnline(2, 1.0)
	var last float64
	for i := 0; i < 5; i++ {
		c := o.Submit(0, []int{0, 1})
		if c.Start < last {
			t.Error("service starts must be non-decreasing per submission order")
		}
		last = c.Start
	}
}

func TestSubmitBatchOptimal(t *testing.T) {
	o := NewOnline(9, service)
	// 5 blocks, all first copies on device 0 — batch must remap to 1 access.
	replicas := [][]int{{0, 1, 2}, {0, 3, 6}, {0, 4, 8}, {0, 5, 7}, {0, 2, 1}}
	cs := o.SubmitBatch(0, replicas)
	for i, c := range cs {
		if c.Finish > service+1e-12 {
			t.Errorf("request %d finished at %g, want <= %g (one access)", i, c.Finish, service)
		}
	}
}

func TestSubmitBatchEmptyAndSingle(t *testing.T) {
	o := NewOnline(9, service)
	if cs := o.SubmitBatch(0, nil); cs != nil {
		t.Error("empty batch should return nil")
	}
	cs := o.SubmitBatch(1.5, [][]int{{4, 5, 6}})
	if len(cs) != 1 || cs[0].Device != 4 || cs[0].Start != 1.5 {
		t.Errorf("single batch: %+v", cs)
	}
}

func TestNewOnlinePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewOnline(0, 1) },
		func() { NewOnline(3, 0) },
		func() { NewOnline(3, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestTheorem1 verifies the paper's Theorem 1: with no backlog, if
// OLR(k) == DTR(k) then the online retrieval time TOLR(k) <= TDTR(k),
// where the interval approach aligns requests to the next interval start.
func TestTheorem1(t *testing.T) {
	dt := dt931(t)
	rng := rand.New(rand.NewSource(33))
	interval := 0.4 // ms, longer than max batch service here
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(5)
		perm := rng.Perm(36)
		replicas := make([][]int, k)
		arrivals := make([]float64, k)
		for i := range replicas {
			replicas[i] = dt.Replicas(perm[i])
			arrivals[i] = rng.Float64() * interval // within interval [0, T)
		}
		// Online: serve on arrival.
		ol := NewOnline(9, service)
		olAccesses := SequentialAccesses(replicas, 9)
		var tolr float64
		// Sort by arrival for FCFS.
		idx := rng.Perm(k) // submission order will be sorted below
		_ = idx
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if arrivals[order[j]] < arrivals[order[i]] {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		for _, i := range order {
			c := ol.Submit(arrivals[i], replicas[i])
			if c.Finish > tolr {
				tolr = c.Finish
			}
		}
		// Interval-based: align all to interval start T.
		dtSched := NewOnline(9, service)
		cs := dtSched.IntervalBatch(interval, replicas)
		var tdtr float64
		dtrAccesses := 0
		load := map[int]int{}
		for _, c := range cs {
			if c.Finish > tdtr {
				tdtr = c.Finish
			}
			load[c.Device]++
			if load[c.Device] > dtrAccesses {
				dtrAccesses = load[c.Device]
			}
		}
		if olAccesses == dtrAccesses && tolr > tdtr+1e-9 {
			t.Fatalf("Theorem 1 violated: OLR=DTR=%d but TOLR %g > TDTR %g", olAccesses, tolr, tdtr)
		}
	}
}

// Property: Greedy never does worse than the no-remap initial mapping and
// never better than the max-flow optimum.
func TestQuickGreedyBounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		b := 1 + rng.Intn(30)
		c := 2 + rng.Intn(2)
		replicas := make([][]int, b)
		initial := make([]int, n)
		for i := range replicas {
			perm := rng.Perm(n)
			replicas[i] = perm[:c]
			initial[perm[0]]++
		}
		maxInitial := 0
		for _, l := range initial {
			if l > maxInitial {
				maxInitial = l
			}
		}
		g := NewScheduler().Greedy(replicas, n)
		opt, _ := maxflow.MinAccesses(replicas, n)
		return g.Accesses >= opt && g.Accesses <= maxInitial
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: online completions never overlap on a device and response
// times are >= service time.
func TestQuickOnlineNoOverlap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		o := NewOnline(n, 1.0)
		type span struct{ s, f float64 }
		byDev := make([][]span, n)
		tNow := 0.0
		for i := 0; i < 50; i++ {
			tNow += rng.Float64()
			c := 1 + rng.Intn(n)
			perm := rng.Perm(n)
			comp := o.Submit(tNow, perm[:c])
			if math.Abs(comp.Finish-comp.Start-1.0) > 1e-9 || comp.Start < tNow {
				return false
			}
			byDev[comp.Device] = append(byDev[comp.Device], span{comp.Start, comp.Finish})
		}
		for _, spans := range byDev {
			for i := 1; i < len(spans); i++ {
				if spans[i].s < spans[i-1].f-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGreedy27(b *testing.B) {
	dt := dt931(b)
	rng := rand.New(rand.NewSource(4))
	replicas := make([][]int, 27)
	for i := range replicas {
		replicas[i] = dt.Replicas(rng.Intn(36))
	}
	s := NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Greedy(replicas, 9)
	}
}

// BenchmarkOptimal27 measures the steady-state engine path: one Scheduler
// reused across decisions, as Online.SubmitBatch/IntervalBatch and the
// experiment harnesses do.
func BenchmarkOptimal27(b *testing.B) {
	dt := dt931(b)
	rng := rand.New(rand.NewSource(4))
	replicas := make([][]int, 27)
	for i := range replicas {
		replicas[i] = dt.Replicas(rng.Intn(36))
	}
	s := NewScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Optimal(replicas, 9)
	}
}

// BenchmarkOptimal27PerCall measures the compatibility wrapper, which pays
// a fresh Scheduler per call.
func BenchmarkOptimal27PerCall(b *testing.B) {
	dt := dt931(b)
	rng := rand.New(rand.NewSource(4))
	replicas := make([][]int, 27)
	for i := range replicas {
		replicas[i] = dt.Replicas(rng.Intn(36))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimal(replicas, 9)
	}
}

func BenchmarkOnlineSubmit(b *testing.B) {
	dt := dt931(b)
	o := NewOnline(9, service)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Submit(float64(i)*0.01, dt.Replicas(i%36))
	}
}
