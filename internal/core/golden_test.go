package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"flashqos/internal/decluster"
	"flashqos/internal/design"
	"flashqos/internal/health"
	"flashqos/internal/sampling"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenRequest is one record of the fixed seed-42 workload.
type goldenRequest struct {
	arrival float64
	block   int64
	write   bool
}

// goldenWorkload generates the committed workload: 1500 requests with
// sorted arrivals dense enough to overflow windows, ~1/8 writes.
func goldenWorkload() []goldenRequest {
	rng := rand.New(rand.NewSource(42))
	reqs := make([]goldenRequest, 1500)
	arrivals := make([]float64, len(reqs))
	for i := range arrivals {
		arrivals[i] = rng.Float64() * 25 // ms
	}
	sort.Float64s(arrivals)
	for i := range reqs {
		reqs[i] = goldenRequest{
			arrival: arrivals[i],
			block:   int64(rng.Intn(4000)),
			write:   rng.Intn(8) == 0,
		}
	}
	return reqs
}

type submitter interface {
	Submit(arrival float64, dataBlock int64) Outcome
	SubmitWrite(arrival float64, dataBlock int64) Outcome
}

// goldenRun drives the workload through one system variant and appends
// the exact outcomes.
func goldenRun(buf *bytes.Buffer, label string, sub submitter, reqs []goldenRequest) {
	fmt.Fprintf(buf, "== %s ==\n", label)
	for i, r := range reqs {
		var out Outcome
		if r.write {
			out = sub.SubmitWrite(r.arrival, r.block)
		} else {
			out = sub.Submit(r.arrival, r.block)
		}
		fmt.Fprintf(buf, "%4d arr=%.9f blk=%d w=%v -> rej=%v dev=%d adm=%.9f start=%.9f fin=%.9f delay=%.9f delayed=%v\n",
			i, r.arrival, r.block, r.write, out.Rejected, out.Device, out.Admitted, out.Start, out.Finish, out.Delay, out.Delayed)
	}
}

// goldenAlloc is the one immutable allocator every golden system is built
// over, shared the way shard.New shares it between the shards of an array.
var goldenAlloc = func() *decluster.DesignTheoretic {
	alloc, err := decluster.NewDesignTheoretic(design.Paper931())
	if err != nil {
		panic(err)
	}
	return alloc
}()

// goldenSystem builds one variant. masked fails device 4 before any
// submission, so every decision runs against a degraded S' mask.
func goldenSystem(t *testing.T, masked bool) *System {
	t.Helper()
	sys, err := New(Config{Allocator: goldenAlloc})
	if err != nil {
		t.Fatal(err)
	}
	if masked {
		mon, err := sys.NewHealthMonitor(0, health.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Fail(4); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// goldenVariants are the sections of testdata/golden_seed42.txt.
var goldenVariants = []struct {
	name   string
	masked bool
}{
	{"unmasked", false},
	{"masked", true},
}

// TestGoldenSeed42 locks the engine's observable behavior to a committed
// byte-for-byte transcript: the seed-42 workload, masked (device 4 failed,
// S'=3) and unmasked, must reproduce testdata/golden_seed42.txt (no drift
// across refactors). Regenerate deliberately with -update.
func TestGoldenSeed42(t *testing.T) {
	reqs := goldenWorkload()
	var golden bytes.Buffer
	for _, v := range goldenVariants {
		goldenRun(&golden, v.name, goldenSystem(t, v.masked), reqs)
	}
	compareGolden(t, filepath.Join("testdata", "golden_seed42.txt"), golden.Bytes())
}

// compareGolden checks (or, with -update, rewrites) a committed transcript.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		g, w := got, want
		line, col := 1, 0
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				break
			}
			col++
			if g[i] == '\n' {
				line++
				col = 0
			}
		}
		t.Fatalf("output differs from %s at line %d (got %d bytes, want %d); engine behavior drifted — if intentional, regenerate with -update",
			path, line, len(g), len(w))
	}
}

// goldenStatTable samples the P_k table for the statistical goldens with
// every degree of freedom pinned — seed, trial count, AND worker count
// (trials are sharded worker-round-robin with per-worker RNG streams, so
// the result depends on Workers; per-k counts are summed as int64, so it
// does not depend on scheduling).
func goldenStatTable(t *testing.T) *sampling.Table {
	t.Helper()
	tab, err := sampling.Estimate(goldenAlloc, sampling.Options{
		MaxK: 25, Trials: 4000, Seed: 3, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// goldenStatSystem builds one ε > 0 variant over the pinned table.
func goldenStatSystem(t *testing.T, epsilon float64, tab *sampling.Table) *System {
	t.Helper()
	sys, err := New(Config{Allocator: goldenAlloc, Epsilon: epsilon, Table: tab})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestGoldenStatSeed42 locks the statistical (ε > 0) engine to a committed
// byte-for-byte transcript, exactly as TestGoldenSeed42 does for the
// deterministic one: the seed-42 workload at a tight and a loose ε, over a
// fully pinned P_k table. Each section ends with the controller's final Q,
// so the estimator itself is pinned too — the snapshot/merge protocol is a
// parallelization of the serial estimator the transcript was first recorded
// from, not a different policy. Regenerate deliberately with -update.
func TestGoldenStatSeed42(t *testing.T) {
	reqs := goldenWorkload()
	tab := goldenStatTable(t)
	var golden bytes.Buffer
	for _, epsilon := range []float64{0.002, 0.05} {
		sys := goldenStatSystem(t, epsilon, tab)
		goldenRun(&golden, fmt.Sprintf("eps=%g", epsilon), sys, reqs)
		fmt.Fprintf(&golden, "Q=%.12f\n", sys.Q())
	}
	compareGolden(t, filepath.Join("testdata", "golden_stat_seed42.txt"), golden.Bytes())
}

// goldenBatchRun drives the seed-42 workload's reads through SubmitBatch in
// pseudo-random batches of minSize..maxSize requests sharing the first
// request's arrival, with one reused scratch, and appends every field of
// every outcome. Batches larger than the window's remaining room overflow
// into the per-request path, so both halves of SubmitBatch appear.
func goldenBatchRun(buf *bytes.Buffer, label string, sys *System, reqs []goldenRequest, minSize, maxSize int) {
	fmt.Fprintf(buf, "== %s ==\n", label)
	var blocks []int64
	var arrivals []float64
	for _, r := range reqs {
		if !r.write {
			blocks = append(blocks, r.block)
			arrivals = append(arrivals, r.arrival*goldenBatchStretch)
		}
	}
	rng := rand.New(rand.NewSource(5))
	var sc BatchScratch
	for i := 0; i < len(blocks); {
		n := minSize + rng.Intn(maxSize-minSize+1)
		if i+n > len(blocks) {
			n = len(blocks) - i
		}
		arrival := arrivals[i]
		for j, out := range sys.SubmitBatch(arrival, blocks[i:i+n], &sc) {
			fmt.Fprintf(buf, "%4d arr=%.9f blk=%d n=%d -> rej=%v unav=%v dev=%d adm=%.9f start=%.9f fin=%.9f delay=%.9f delayed=%v\n",
				i+j, arrival, blocks[i+j], n, out.Rejected, out.Unavailable, out.Device,
				out.Admitted, out.Start, out.Finish, out.Delay, out.Delayed)
		}
		i += n
	}
	if sys.stat != nil {
		fmt.Fprintf(buf, "Q=%.12f\n", sys.Q())
	}
}

// goldenBatchStretch spreads the workload's arrivals out so that most
// batches find room in their arrival window and the joint assignment, not
// only the overflow path, decides them.
const goldenBatchStretch = 3

// TestGoldenBatchSeed42 locks SubmitBatch to a committed byte-for-byte
// transcript, as TestGoldenSeed42 does for the per-request verbs: the
// seed-42 reads in batches of 1–8 (S = 5) unmasked, masked (device 4
// failed) and at ε = 0.05, plus an overflow section whose every batch is
// larger than S. Regenerate deliberately with -update.
func TestGoldenBatchSeed42(t *testing.T) {
	reqs := goldenWorkload()
	tab := goldenStatTable(t)
	variants := []struct {
		name             string
		sys              *System
		minSize, maxSize int
	}{
		{"unmasked", goldenSystem(t, false), 1, 8},
		{"masked", goldenSystem(t, true), 1, 8},
		{"overflow", goldenSystem(t, false), 6, 15},
		{"eps=0.05", goldenStatSystem(t, 0.05, tab), 1, 8},
	}
	var golden bytes.Buffer
	for _, v := range variants {
		goldenBatchRun(&golden, v.name, v.sys, reqs, v.minSize, v.maxSize)
	}
	compareGolden(t, filepath.Join("testdata", "golden_batch_seed42.txt"), golden.Bytes())
}
