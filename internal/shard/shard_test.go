package shard

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/health"
)

func newArray(t testing.TB, k int, cfg core.Config) *Array {
	t.Helper()
	if cfg.Design == nil && cfg.N == 0 {
		cfg.Design = design.Paper931()
	}
	a, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestShardRouting(t *testing.T) {
	a := newArray(t, 4, core.Config{})
	if a.Shards() != 4 || a.DevicesPerShard() != 9 || a.Devices() != 36 {
		t.Fatalf("geometry: shards=%d devsPer=%d devices=%d", a.Shards(), a.DevicesPerShard(), a.Devices())
	}
	if a.S() != 4*a.System(0).S() {
		t.Errorf("aggregate S = %d, want %d", a.S(), 4*a.System(0).S())
	}
	hit := make([]int, 4)
	at := 0.0
	for b := int64(0); b < 400; b++ {
		i := a.ShardOf(b)
		if i != a.ShardOf(b) {
			t.Fatalf("ShardOf(%d) not deterministic", b)
		}
		hit[i]++
		out := a.Submit(at, b)
		at += 0.05
		if out.Rejected {
			t.Fatalf("rejected under Delay policy: %+v", out)
		}
		if out.Device/a.DevicesPerShard() != i {
			t.Errorf("block %d owned by shard %d but served by global device %d", b, i, out.Device)
		}
		sh, local, ok := a.DeviceShard(out.Device)
		if !ok || sh != i || a.GlobalDevice(sh, local) != out.Device {
			t.Errorf("device translation roundtrip failed for global device %d", out.Device)
		}
	}
	for i, n := range hit {
		if n == 0 {
			t.Errorf("shard %d received no blocks out of 400 — hash not spreading", i)
		}
	}
	if _, _, ok := a.DeviceShard(-1); ok {
		t.Error("DeviceShard(-1) ok")
	}
	if _, _, ok := a.DeviceShard(36); ok {
		t.Error("DeviceShard(36) ok")
	}
}

// TestShardStress floods a 4-shard array from many goroutines at well past
// single-shard capacity and asserts the composed invariant: each shard's
// per-window admissions stay within its own S, every request is admitted
// (Delay policy) on a device owned by the block's shard, and the
// guaranteed path holds. Run under -race this is the memory-safety proof
// for cross-shard concurrent submission.
func TestShardStress(t *testing.T) {
	a := newArray(t, 4, core.Config{})
	const (
		goroutines = 8
		perG       = 400
		dt         = 0.004
	)
	var clock atomic.Int64
	outs := make([][]core.Outcome, goroutines)
	blocks := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				arrival := float64(clock.Add(1)) * dt
				b := int64(g*1_000_000 + i)
				blocks[g] = append(blocks[g], b)
				outs[g] = append(outs[g], a.Submit(arrival, b))
			}
		}(g)
	}
	wg.Wait()

	perShardS := a.System(0).S()
	for g := range outs {
		for j, out := range outs[g] {
			if out.Rejected {
				t.Fatalf("rejected under Delay policy: %+v", out)
			}
			if want := a.ShardOf(blocks[g][j]); out.Device/a.DevicesPerShard() != want {
				t.Fatalf("block %d served by device %d outside its shard %d", blocks[g][j], out.Device, want)
			}
			if math.Abs(out.Start-out.Admitted) > 1e-9 {
				t.Fatalf("guaranteed path violated: start %.9f != admitted %.9f", out.Start, out.Admitted)
			}
		}
	}
	for i := 0; i < a.Shards(); i++ {
		if max := a.System(i).MaxWindowCount(); max > perShardS {
			t.Errorf("shard %d MaxWindowCount = %d, limit S=%d", i, max, perShardS)
		}
	}
}

// TestShardSubmitAllocs pins the sharded read hot path at zero
// allocations: hashing, routing, admission and device translation all run
// without heap traffic.
func TestShardSubmitAllocs(t *testing.T) {
	a := newArray(t, 4, core.Config{Design: design.Paper931(), M: 50, IntervalMS: 1000})
	at := 0.0
	i := 0
	submit := func() {
		out := a.Submit(at, int64(i%144))
		if out.Rejected {
			t.Fatal("rejected in steady state")
		}
		at += 0.2
		i++
	}
	for j := 0; j < 40; j++ { // warm each shard's ledger and scheduler
		submit()
	}
	if avg := testing.AllocsPerRun(300, submit); avg != 0 {
		t.Errorf("sharded Submit allocates %.2f per op, want 0", avg)
	}
}

// TestShardBatchOrder checks SubmitBatch scatters per-shard results back
// into input order with global device ids.
func TestShardBatchOrder(t *testing.T) {
	a := newArray(t, 3, core.Config{})
	blocks := make([]int64, 12)
	for i := range blocks {
		blocks[i] = int64(i * 31)
	}
	outs := a.SubmitBatch(0, blocks, nil)
	if len(outs) != len(blocks) {
		t.Fatalf("got %d outcomes for %d blocks", len(outs), len(blocks))
	}
	for j, out := range outs {
		if out.Rejected {
			t.Fatalf("block %d rejected under Delay policy", blocks[j])
		}
		if want := a.ShardOf(blocks[j]); out.Device/a.DevicesPerShard() != want {
			t.Errorf("outcome %d on device %d, not in shard %d owning block %d", j, out.Device, want, blocks[j])
		}
	}
	if a.SubmitBatch(1, nil, nil) != nil {
		t.Error("empty batch should return nil")
	}
}

// TestShardHealthIsolation fails one global device and checks the
// degraded limit is confined to the owning shard: the aggregate drops by
// exactly S - S' of one shard while the others keep the full budget.
func TestShardHealthIsolation(t *testing.T) {
	a := newArray(t, 4, core.Config{})
	if a.HasHealth() {
		t.Fatal("monitors before NewHealthMonitors")
	}
	if err := a.NewHealthMonitors(0, health.Config{}); err != nil {
		t.Fatal(err)
	}
	if !a.HasHealth() {
		t.Fatal("monitors missing after NewHealthMonitors")
	}
	full := a.EffectiveS()
	if full != a.S() {
		t.Fatalf("healthy EffectiveS %d != S %d", full, a.S())
	}

	const global = 2*9 + 4 // shard 2, local device 4
	sh, local, ok := a.DeviceShard(global)
	if !ok || sh != 2 || local != 4 {
		t.Fatalf("DeviceShard(%d) = %d,%d,%v", global, sh, local, ok)
	}
	if err := a.Monitor(sh).Fail(local); err != nil {
		t.Fatal(err)
	}

	wantShard2 := a.System(2).EffectiveS()
	if wantShard2 >= a.System(0).S() {
		t.Fatalf("failed shard limit %d did not degrade below S=%d", wantShard2, a.System(0).S())
	}
	if got, want := a.EffectiveS(), 3*a.System(0).S()+wantShard2; got != want {
		t.Errorf("aggregate EffectiveS = %d, want %d (degradation confined to shard 2)", got, want)
	}
	st := a.Stats()
	if st.Shards != 4 || st.Devices != 36 {
		t.Errorf("stats geometry: %+v", st)
	}
	if st.Alive != 35 {
		t.Errorf("stats alive = %d, want 35", st.Alive)
	}
	if st.PerShard[2].Alive != 8 || st.PerShard[2].EffectiveS != wantShard2 {
		t.Errorf("shard 2 stats = %+v", st.PerShard[2])
	}
	for _, i := range []int{0, 1, 3} {
		if st.PerShard[i].EffectiveS != a.System(0).S() || st.PerShard[i].Alive != 9 {
			t.Errorf("healthy shard %d stats = %+v", i, st.PerShard[i])
		}
	}
}

func TestShardConstructors(t *testing.T) {
	if _, err := New(0, core.Config{Design: design.Paper931()}); err == nil {
		t.Error("New(0, ...) accepted")
	}
	if _, err := FromSystems(); err == nil {
		t.Error("FromSystems() with no systems accepted")
	}
	s9, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	s7, err := core.New(core.Config{N: 7, C: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSystems(s9, s7); err == nil {
		t.Error("mismatched device counts accepted")
	}
	if _, err := FromSystems(s9, s9); err == nil {
		t.Error("second system numbering its devices from 0 accepted")
	}

	one := newArray(t, 1, core.Config{})
	if one.ShardOf(12345) != 0 {
		t.Error("single-shard routing must be identity")
	}
	out := one.Submit(0, 7)
	if out.Rejected || out.Device < 0 || out.Device >= 9 {
		t.Errorf("single-shard submit: %+v", out)
	}
	if outs := one.SubmitBatch(1, []int64{1, 2, 3}, nil); len(outs) != 3 {
		t.Errorf("single-shard batch returned %d outcomes", len(outs))
	}
}

// TestShardsShareSampledTable checks that an ε > 0 array samples its P_k
// table once: the shards share the design, so a second Monte-Carlo pass
// over identical inputs would only repeat the first. The small (4,2,1)
// design keeps the full-size sampling pass cheap.
func TestShardsShareSampledTable(t *testing.T) {
	a := newArray(t, 2, core.Config{N: 4, C: 2, Epsilon: 0.01})
	t0, t1 := a.System(0).Table(), a.System(1).Table()
	if t0 == nil {
		t.Fatal("ε > 0 shard has no P_k table")
	}
	if t0 != t1 {
		t.Fatal("shards sampled separate P_k tables")
	}
}

func TestShardWriteRouting(t *testing.T) {
	a := newArray(t, 2, core.Config{})
	at := 0.0
	for b := int64(0); b < 40; b++ {
		out := a.SubmitWrite(at, b)
		at += 1.0
		if out.Rejected {
			t.Fatalf("write rejected under Delay policy: %+v", out)
		}
		if want := a.ShardOf(b); out.Device/a.DevicesPerShard() != want {
			t.Errorf("write for block %d landed on device %d outside shard %d", b, out.Device, want)
		}
	}
}

func BenchmarkShardedSubmit(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(map[int]string{1: "k=1", 4: "k=4"}[k], func(b *testing.B) {
			a := newArray(b, k, core.Config{})
			var clock atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := int64(0)
				for pb.Next() {
					arrival := float64(clock.Add(1)) * 0.005
					a.Submit(arrival, i)
					i++
				}
			})
		})
	}
}
