package flashsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newSSD(t testing.TB, cfg SSDConfig) *SSD {
	t.Helper()
	s, err := NewSSD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tinySSD(t testing.TB) *SSD {
	return newSSD(t, SSDConfig{
		Channels: 2, PlanesPerChan: 2, BlocksPerPlane: 8, PagesPerBlock: 4,
	})
}

// idleRead is one read's latency on an idle plane and channel.
const idleRead = readMS + transferMS

func TestSSDConfigValidation(t *testing.T) {
	bad := []SSDConfig{
		{Channels: -1},
		{Channels: 1, PlanesPerChan: 1, BlocksPerPlane: 2, PagesPerBlock: 4},
		{Channels: 1, PlanesPerChan: 1, BlocksPerPlane: 5, PagesPerBlock: 4}, // no room above gcLowWater
	}
	for i, cfg := range bad {
		if _, err := NewSSD(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	if _, err := NewSSD(SSDConfig{}); err != nil {
		t.Errorf("defaults should be valid: %v", err)
	}
}

func TestSSDReadLatencyIdle(t *testing.T) {
	s := tinySSD(t)
	fin := s.Read(0, 42)
	if math.Abs(fin-idleRead) > 1e-12 {
		t.Errorf("idle read finished at %g, want %g", fin, idleRead)
	}
	// Default geometry approximates the paper's one-block read time.
	d := newSSD(t, SSDConfig{})
	fin = d.Read(0, 1)
	if math.Abs(fin-DefaultReadLatency) > 0.01 {
		t.Errorf("default SSD read %g, want ≈ %g", fin, DefaultReadLatency)
	}
}

func TestSSDWriteReadRoundTrip(t *testing.T) {
	s := tinySSD(t)
	fin := s.Write(0, 7)
	if fin <= 0 {
		t.Fatal("write did not advance time")
	}
	// The read must go to the plane the FTL placed the page on, costing a
	// normal read after the write completes.
	rfin := s.Read(fin, 7)
	if rfin < fin+idleRead-1e-12 {
		t.Errorf("read after write finished at %g, want >= %g", rfin, fin+idleRead)
	}
}

func TestSSDReadsAreDeterministicWithoutWrites(t *testing.T) {
	// The paper's premise: a read-only flash module has a fixed response
	// time when idle. Reads spread over planes with gaps never queue.
	s := tinySSD(t)
	tNow := 0.0
	for i := int64(0); i < 100; i++ {
		fin := s.Read(tNow, i)
		if math.Abs(fin-tNow-idleRead) > 1e-9 {
			t.Fatalf("read %d latency %g, want %g", i, fin-tNow, idleRead)
		}
		tNow = fin + 0.2 // leave the module idle before the next read
	}
}

func TestSSDGCTriggersUnderWrites(t *testing.T) {
	s := tinySSD(t)
	cap := s.Capacity()
	if cap <= 0 {
		t.Fatal("capacity must be positive")
	}
	// Overwrite a small working set far more times than the geometry holds:
	// GC must run.
	tNow := 0.0
	for i := 0; i < int(cap)*4; i++ {
		tNow = s.Write(tNow, int64(i%10))
	}
	if s.GCRuns() == 0 {
		t.Error("GC never ran under sustained overwrites")
	}
}

func TestSSDGCDisturbsReadLatency(t *testing.T) {
	// The motivation quantified: with concurrent writes triggering GC,
	// read tail latency exceeds the idle read time.
	s := tinySSD(t)
	rng := rand.New(rand.NewSource(1))
	tNow := 0.0
	worst := 0.0
	for i := 0; i < 2000; i++ {
		tNow += 0.05
		if rng.Intn(3) == 0 {
			s.Write(tNow, int64(rng.Intn(40)))
		} else {
			fin := s.Read(tNow, int64(rng.Intn(40)))
			if lat := fin - tNow; lat > worst {
				worst = lat
			}
		}
	}
	if worst <= idleRead+1e-9 {
		t.Errorf("read tail %g never exceeded the idle latency — GC interference missing", worst)
	}
}

func TestSSDLiveDataConsistency(t *testing.T) {
	// After arbitrary writes, every logical page maps to exactly one valid
	// physical page and the per-block live counts agree with the bitmap.
	s := tinySSD(t)
	rng := rand.New(rand.NewSource(2))
	tNow := 0.0
	for i := 0; i < 500; i++ {
		tNow = s.Write(tNow, int64(rng.Intn(30)))
	}
	seen := map[ppn]bool{}
	for lpn, loc := range s.l2p {
		if !s.planes[loc.plane].valid[loc.block][loc.page] {
			t.Fatalf("lpn %d maps to invalid page %+v", lpn, loc)
		}
		if seen[loc] {
			t.Fatalf("physical page %+v mapped twice", loc)
		}
		seen[loc] = true
		if got := s.p2l[loc.plane][loc.block][loc.page]; got != lpn {
			t.Fatalf("reverse map wrong: %+v -> %d, want %d", loc, got, lpn)
		}
	}
	for p := range s.planes {
		ps := &s.planes[p]
		for b := range ps.valid {
			count := 0
			for _, v := range ps.valid[b] {
				if v {
					count++
				}
			}
			if count != ps.liveCount[b] {
				t.Fatalf("plane %d block %d live count %d, bitmap %d", p, b, ps.liveCount[b], count)
			}
		}
	}
}

func TestSSDOverfillPanics(t *testing.T) {
	s := newSSD(t, SSDConfig{
		Channels: 1, PlanesPerChan: 1, BlocksPerPlane: 2 * (gcLowWater + 1), PagesPerBlock: 2,
	})
	defer func() {
		if recover() == nil {
			t.Error("writing far beyond capacity should panic")
		}
	}()
	tNow := 0.0
	for i := int64(0); i < 1000; i++ {
		tNow = s.Write(tNow, i) // all-distinct pages: working set grows unbounded
	}
}

// Property: time never goes backwards and GC conserves data — every
// previously written lpn stays mapped after arbitrary overwrite sequences.
func TestQuickSSDConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSSD(SSDConfig{
			Channels: 1 + rng.Intn(2), PlanesPerChan: 1 + rng.Intn(2),
			BlocksPerPlane: 8, PagesPerBlock: 4,
		})
		if err != nil {
			return false
		}
		written := map[int64]bool{}
		tNow := 0.0
		universe := int64(s.Capacity() / 2)
		if universe < 1 {
			universe = 1
		}
		for i := 0; i < 300; i++ {
			lpn := rng.Int63n(universe)
			fin := s.Write(tNow, lpn)
			if fin < tNow {
				return false
			}
			tNow = fin
			written[lpn] = true
		}
		for lpn := range written {
			loc, ok := s.l2p[lpn]
			if !ok || !s.planes[loc.plane].valid[loc.block][loc.page] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSSDWrite(b *testing.B) {
	s, _ := NewSSD(SSDConfig{})
	cap := s.Capacity()
	tNow := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tNow = s.Write(tNow, int64(i)%(cap/2))
	}
}

func BenchmarkSSDRead(b *testing.B) {
	s, _ := NewSSD(SSDConfig{})
	tNow := 0.0
	for i := int64(0); i < 1000; i++ {
		tNow = s.Write(tNow, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tNow = s.Read(tNow, int64(i%1000))
	}
}

func TestSSDArrayBasics(t *testing.T) {
	arr, err := NewSSDArray(3, SSDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fin := arr.Read(0, 0, 42)
	if math.Abs(fin-DefaultReadLatency) > 0.01 {
		t.Errorf("idle array read %g", fin)
	}
	wfin := arr.Write(1, 0, 42)
	if wfin <= 0 {
		t.Error("write did not advance time")
	}
	if arr.TotalGCRuns() != 0 {
		t.Error("fresh array should have no GC")
	}
}

func TestSSDArrayPanics(t *testing.T) {
	if _, err := NewSSDArray(0, SSDConfig{}); err == nil {
		t.Error("zero modules should fail")
	}
	if _, err := NewSSDArray(2, SSDConfig{Channels: -1}); err == nil {
		t.Error("bad module config should fail")
	}
	arr, _ := NewSSDArray(2, SSDConfig{})
	for _, f := range []func(){
		func() { arr.Read(5, 0, 1) },
		func() { arr.Read(-1, 0, 1) },
		func() { arr.Read(0, 10, 1); arr.Read(0, 5, 1) }, // time backwards
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
