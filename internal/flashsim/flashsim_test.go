package flashsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newArray(t testing.TB, cfg Config) *Array {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSingleRead(t *testing.T) {
	a := newArray(t, Config{Modules: 9})
	a.Submit(Request{ID: 1, Arrival: 0, Module: 3})
	cs := a.Run()
	if len(cs) != 1 {
		t.Fatalf("got %d completions, want 1", len(cs))
	}
	c := cs[0]
	if c.Start != 0 || math.Abs(c.Finish-DefaultReadLatency) > 1e-12 {
		t.Errorf("start/finish = %g/%g", c.Start, c.Finish)
	}
	if math.Abs(c.Response()-DefaultReadLatency) > 1e-12 {
		t.Errorf("response = %g, want %g", c.Response(), DefaultReadLatency)
	}
}

func TestFIFOQueueing(t *testing.T) {
	a := newArray(t, Config{Modules: 1, ReadLatency: 1.0})
	for i := 0; i < 3; i++ {
		a.Submit(Request{ID: int64(i), Arrival: 0, Module: 0})
	}
	cs := a.Run()
	if len(cs) != 3 {
		t.Fatalf("got %d completions", len(cs))
	}
	// FIFO: IDs complete in submission order, at 1, 2, 3.
	for i, c := range cs {
		if c.ID != int64(i) {
			t.Errorf("completion %d is request %d; FIFO violated", i, c.ID)
		}
		if math.Abs(c.Finish-float64(i+1)) > 1e-12 {
			t.Errorf("request %d finished at %g, want %d", c.ID, c.Finish, i+1)
		}
	}
}

func TestParallelModules(t *testing.T) {
	a := newArray(t, Config{Modules: 4, ReadLatency: 1.0})
	for i := 0; i < 4; i++ {
		a.Submit(Request{ID: int64(i), Arrival: 0, Module: i})
	}
	cs := a.Run()
	for _, c := range cs {
		if math.Abs(c.Finish-1.0) > 1e-12 {
			t.Errorf("module %d finished at %g, want 1 (parallel)", c.Module, c.Finish)
		}
	}
}

func TestWaysParallelism(t *testing.T) {
	// 2 ways: two requests on the same module serve concurrently.
	a := newArray(t, Config{Modules: 1, Ways: 2, ReadLatency: 1.0})
	for i := 0; i < 4; i++ {
		a.Submit(Request{ID: int64(i), Arrival: 0, Module: 0})
	}
	cs := a.Run()
	var atOne, atTwo int
	for _, c := range cs {
		switch {
		case math.Abs(c.Finish-1.0) < 1e-12:
			atOne++
		case math.Abs(c.Finish-2.0) < 1e-12:
			atTwo++
		default:
			t.Errorf("unexpected finish %g", c.Finish)
		}
	}
	if atOne != 2 || atTwo != 2 {
		t.Errorf("finishes: %d@1ms %d@2ms, want 2/2", atOne, atTwo)
	}
}

func TestArrivalDuringService(t *testing.T) {
	a := newArray(t, Config{Modules: 1, ReadLatency: 1.0})
	a.Submit(Request{ID: 0, Arrival: 0, Module: 0})
	a.Submit(Request{ID: 1, Arrival: 0.5, Module: 0})
	cs := a.Run()
	if math.Abs(cs[1].Start-1.0) > 1e-12 {
		t.Errorf("second request started at %g, want 1.0 (after first)", cs[1].Start)
	}
	if math.Abs(cs[1].Response()-1.5) > 1e-12 {
		t.Errorf("second response = %g, want 1.5", cs[1].Response())
	}
}

func TestIdleGap(t *testing.T) {
	a := newArray(t, Config{Modules: 1, ReadLatency: 1.0})
	a.Submit(Request{ID: 0, Arrival: 0, Module: 0})
	a.Submit(Request{ID: 1, Arrival: 5, Module: 0})
	cs := a.Run()
	if cs[1].Start != 5 {
		t.Errorf("request after idle gap started at %g, want 5", cs[1].Start)
	}
}

func TestWriteLatency(t *testing.T) {
	a := newArray(t, Config{Modules: 1})
	a.Submit(Request{ID: 0, Arrival: 0, Module: 0, Op: Write})
	cs := a.Run()
	if math.Abs(cs[0].Finish-DefaultWriteLatency) > 1e-12 {
		t.Errorf("write finished at %g, want %g", cs[0].Finish, DefaultWriteLatency)
	}
}

func TestJitterBoundsAndDeterminism(t *testing.T) {
	mk := func(seed int64) []Completion {
		a := newArray(t, Config{Modules: 1, ReadLatency: 1.0, JitterFrac: 0.2, Seed: seed})
		for i := 0; i < 50; i++ {
			a.Submit(Request{ID: int64(i), Arrival: float64(i) * 10, Module: 0})
		}
		return a.Run()
	}
	c1, c2 := mk(9), mk(9)
	for i := range c1 {
		lat := c1[i].Finish - c1[i].Start
		if lat < 0.8-1e-9 || lat > 1.2+1e-9 {
			t.Errorf("jittered latency %g outside [0.8, 1.2]", lat)
		}
		if c1[i].Finish != c2[i].Finish {
			t.Error("same seed must reproduce exactly")
		}
	}
	c3 := mk(10)
	same := true
	for i := range c1 {
		if c1[i].Finish != c3[i].Finish {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestIncrementalRuns(t *testing.T) {
	a := newArray(t, Config{Modules: 1, ReadLatency: 1.0})
	a.Submit(Request{ID: 0, Arrival: 0, Module: 0})
	cs := a.Run()
	if len(cs) != 1 {
		t.Fatal("first run")
	}
	a.Submit(Request{ID: 1, Arrival: 2, Module: 0})
	cs = a.Run()
	if len(cs) != 1 || cs[0].ID != 1 {
		t.Fatalf("second run should return only new completions: %+v", cs)
	}
}

func TestSubmitValidation(t *testing.T) {
	a := newArray(t, Config{Modules: 2})
	for _, f := range []func(){
		func() { a.Submit(Request{Module: 2}) },
		func() { a.Submit(Request{Module: -1}) },
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
	// Arrival before current time panics after Run advances the clock.
	a.Submit(Request{ID: 1, Arrival: 5, Module: 0})
	a.Run()
	defer func() {
		if recover() == nil {
			t.Error("late arrival should panic")
		}
	}()
	a.Submit(Request{ID: 2, Arrival: 1, Module: 0})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Modules: 0},
		{Modules: 1, Ways: -1},
		{Modules: 1, ReadLatency: -1},
		{Modules: 1, WriteLatency: -0.5},
		{Modules: 1, JitterFrac: 1.0},
		{Modules: 1, JitterFrac: -0.1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
}

// Property: conservation and sanity — every submitted request completes
// exactly once, responses >= service latency, and per-module FIFO start
// order follows arrival order.
func TestQuickSimulatorInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		lat := 0.5 + rng.Float64()
		a, err := New(Config{Modules: n, ReadLatency: lat, WriteLatency: lat})
		if err != nil {
			return false
		}
		count := 30 + rng.Intn(50)
		tNow := 0.0
		type key struct{ id int64 }
		submitted := map[key]bool{}
		for i := 0; i < count; i++ {
			tNow += rng.Float64() * lat
			r := Request{ID: int64(i), Arrival: tNow, Module: rng.Intn(n)}
			a.Submit(r)
			submitted[key{r.ID}] = true
		}
		cs := a.Run()
		if len(cs) != count {
			return false
		}
		perModule := make(map[int][]Completion)
		for _, c := range cs {
			if !submitted[key{c.ID}] {
				return false
			}
			delete(submitted, key{c.ID})
			if c.Response() < lat-1e-9 || c.Start < c.Arrival-1e-9 {
				return false
			}
			perModule[c.Module] = append(perModule[c.Module], c)
		}
		for _, list := range perModule {
			// no overlapping service; starts ordered by arrival
			byStart := append([]Completion(nil), list...)
			for i := range byStart {
				for j := i + 1; j < len(byStart); j++ {
					if byStart[j].Start < byStart[i].Start {
						byStart[i], byStart[j] = byStart[j], byStart[i]
					}
				}
			}
			for i := 1; i < len(byStart); i++ {
				if byStart[i].Start < byStart[i-1].Finish-1e-9 {
					return false
				}
				if byStart[i].Arrival < byStart[i-1].Arrival-1e-9 {
					return false // FIFO violated
				}
			}
		}
		return len(submitted) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimulate10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, _ := New(Config{Modules: 9})
		for j := 0; j < 10000; j++ {
			a.Submit(Request{ID: int64(j), Arrival: float64(j) * 0.05, Module: j % 9})
		}
		a.Run()
	}
}
