package qosnet

import (
	"fmt"
	"strings"
	"testing"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/health"
	"flashqos/internal/sampling"
	"flashqos/internal/shard"
)

// startShardedServer runs a server over K (9,3,1) shards with health
// monitors attached.
func startShardedServer(t *testing.T, k int) (*Server, string) {
	t.Helper()
	arr, err := shard.New(k, core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.NewHealthMonitors(0, health.Config{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServerSharded(arr, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr.String()
}

// TestShardedServerRouting round-trips reads and MAPs through a 4-shard
// server and checks the protocol speaks consistent global device ids: a
// block's served device sits inside the replica set MAP reports, and both
// sit inside the block's owning shard.
func TestShardedServerRouting(t *testing.T) {
	srv, addr := startShardedServer(t, 4)
	c := dialBinT(t, addr)
	arr := srv.arr

	for block := int64(0); block < 60; block++ {
		db, devices, err := c.Map(block)
		if err != nil {
			t.Fatal(err)
		}
		own := arr.ShardOf(block)
		if wantDB := arr.System(own).Mapper().DesignBlock(block); db != wantDB {
			t.Errorf("MAP %d designBlock = %d, want %d", block, db, wantDB)
		}
		inSet := make(map[int]bool, len(devices))
		for _, d := range devices {
			inSet[d] = true
			if d/arr.DevicesPerShard() != own {
				t.Errorf("MAP %d device %d outside owning shard %d", block, d, own)
			}
		}
		r, err := c.Read(block)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rejected {
			t.Fatalf("READ %d rejected under Delay policy", block)
		}
		if !inSet[r.Device] {
			t.Errorf("READ %d served by device %d, not in replica set %v", block, r.Device, devices)
		}
	}

	req, _, rej, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if req != 60 || rej != 0 {
		t.Errorf("STATS requests=%d rejected=%d, want 60, 0", req, rej)
	}
}

// TestShardedServerMetrics checks the aggregated exposition: the shards
// gauge, per-shard labelled series, and aggregate limits K·S.
func TestShardedServerMetrics(t *testing.T) {
	srv, addr := startShardedServer(t, 4)
	c := dialBinT(t, addr)
	for block := int64(0); block < 40; block++ {
		if _, err := c.Read(block); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	s1 := srv.arr.System(0).S()
	for _, want := range []string{
		"flashqos_requests_total 40",
		"flashqos_shards 4",
		fmt.Sprintf("flashqos_admission_limit %d", 4*s1),
		fmt.Sprintf("flashqos_admission_limit_effective %d", 4*s1),
		"flashqos_devices_alive 36",
		`flashqos_shard_devices_alive{shard="3"} 9`,
		`flashqos_shard_admission_limit_effective{shard="0"} 5`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("METRICS missing %q", want)
		}
	}
	// Every shard's request counter appears, and they sum to the total.
	sum := 0
	for i := 0; i < 4; i++ {
		series := fmt.Sprintf(`flashqos_shard_requests_total{shard="%d"} `, i)
		idx := strings.Index(m, series)
		if idx < 0 {
			t.Fatalf("METRICS missing series %q", series)
		}
		var n int
		if _, err := fmt.Sscanf(m[idx+len(series):], "%d", &n); err != nil {
			t.Fatalf("bad %q sample: %v", series, err)
		}
		sum += n
	}
	if sum != 40 {
		t.Errorf("per-shard request counters sum to %d, want 40", sum)
	}
}

// TestShardedServerShardQ runs a statistical (ε > 0) 2-shard server, pushes
// load through it, and checks the per-shard Q gauge round-trips: ShardStats
// reports one probability per shard, the value the shard's live controller
// publishes. On a deterministic server every shard reports exactly 0.
func TestShardedServerShardQ(t *testing.T) {
	// Inject the P_k table shard 0 would sample, at a test-sized 500 trials.
	base, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := sampling.Estimate(base.Allocator(), sampling.Options{MaxK: 2*base.Design().N + base.S(), Trials: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := shard.New(2, core.Config{Design: design.Paper931(), Epsilon: 0.05, Table: tab})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerSharded(arr, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	c := dialBinT(t, addr.String())

	for block := int64(0); block < 120; block++ {
		if _, err := c.Read(block); err != nil {
			t.Fatal(err)
		}
	}
	gs, err := c.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 {
		t.Fatalf("ShardStats returned %d shards, want 2", len(gs))
	}
	for i, g := range gs {
		if g.Q < 0 || g.Q > 1 {
			t.Errorf("shard %d Q = %g, want a probability", i, g.Q)
		}
		if want := arr.System(i).Q(); g.Q > want+1e-6 || g.Q < want-1e-6 {
			t.Errorf("shard %d gauge %g, live controller %g", i, g.Q, want)
		}
	}

	// Deterministic server: one gauge per shard, all zero.
	_, detAddr := startShardedServer(t, 4)
	gs, err = dialBinT(t, detAddr).ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 4 {
		t.Fatalf("deterministic ShardStats returned %d shards, want 4", len(gs))
	}
	for i, g := range gs {
		if g.Q != 0 {
			t.Errorf("deterministic shard %d Q = %g, want 0", i, g.Q)
		}
	}
}

// TestShardedServerHealthAdmin fails a global device and checks the
// degradation is confined to its shard while the admin surface stays
// coherent: FAIL/RECOVER answer the aggregate S', HEALTH reports global
// ids across all shards.
func TestShardedServerHealthAdmin(t *testing.T) {
	srv, addr := startShardedServer(t, 4)
	c := dialBinT(t, addr)
	arr := srv.arr
	full := arr.S()

	const global = 13 // shard 1, local device 4
	state, eff, err := c.Fail(global)
	if err != nil {
		t.Fatal(err)
	}
	if state != "failed" {
		t.Errorf("FAIL state %q, want failed", state)
	}
	degradedOne := arr.System(1).EffectiveS()
	if wantEff := full - arr.System(0).S() + degradedOne; eff != wantEff {
		t.Errorf("effective S after one failure = %d, want %d", eff, wantEff)
	}
	for _, i := range []int{0, 2, 3} {
		if arr.System(i).EffectiveS() != arr.System(i).S() {
			t.Errorf("healthy shard %d degraded to %d", i, arr.System(i).EffectiveS())
		}
	}

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Devices != 36 || h.Alive != 35 || int(h.EffectiveS) != eff || int(h.FullS) != full {
		t.Errorf("HEALTH = %+v, want devices=36 alive=35 s=%d s_full=%d", h, eff, full)
	}
	if len(h.States) != 36 {
		t.Fatalf("HEALTH reported %d devices, want 36", len(h.States))
	}
	for _, d := range h.States {
		want := "healthy"
		if d.Device == global {
			want = "failed"
		}
		if d.State != want {
			t.Errorf("DEV %d state %q, want %q", d.Device, d.State, want)
		}
	}

	// Reads for blocks owned by the degraded shard avoid the failed device.
	for block := int64(0); block < 200; block++ {
		if arr.ShardOf(block) != 1 {
			continue
		}
		r, err := c.Read(block)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Rejected && r.Device == global {
			t.Fatalf("READ %d served by failed device %d", block, global)
		}
	}

	if _, eff, err = c.Recover(global); err != nil {
		t.Fatal(err)
	}
	if eff != full {
		t.Errorf("effective S after recovery = %d, want %d", eff, full)
	}

	if _, _, err := c.Fail(36); err == nil || !strings.Contains(err.Error(), "bad device") {
		t.Errorf("FAIL 36 (out of range) err = %v, want bad device", err)
	}
}
