package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"flashqos/internal/blockmap"
	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/fim"
	"flashqos/internal/qosnet"
	"flashqos/internal/trace"
)

// TestPipelineTraceFileMineReplay drives the full offline pipeline the way
// a user of the CLI tools would: synthesize a workload, write it to disk in
// the ASCII format, read it back, mine the first interval, build the block
// mapping, and replay the whole trace through the QoS system.
func TestPipelineTraceFileMineReplay(t *testing.T) {
	tr, err := trace.TPCELike(21, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tpce.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(loaded.Records), len(tr.Records))
	}
	if loaded.IntervalMS != tr.IntervalMS {
		t.Fatal("interval metadata lost")
	}

	// Mine interval 0 and check that the mapping separates at least one
	// frequent pair onto different device sets.
	txs := fim.TransactionsFromRecords(loaded.Interval(0), 0.133)
	pairs := fim.MinePairs(txs, 2)
	if len(pairs) == 0 {
		t.Fatal("OLTP interval mined no frequent pairs")
	}
	mapper, err := blockmap.NewMapper(78) // (13,3,1) rotations
	if err != nil {
		t.Fatal(err)
	}
	mapper.BuildFromPairs(pairs)
	if got := mapper.ConflictSupport(pairs); got > pairs[0].Support {
		t.Errorf("conflict support %d too high after mapping", got)
	}

	// Full replay through the QoS system.
	sys, err := core.New(core.Config{Design: design.Paper1331()})
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.ReplayTrace(loaded)
	if rep.Requests != len(loaded.Records) {
		t.Fatalf("replayed %d of %d requests", rep.Requests, len(loaded.Records))
	}
	if math.Abs(rep.MaxResponse-0.132507) > 1e-9 {
		t.Errorf("deterministic guarantee broken: max response %.6f", rep.MaxResponse)
	}
}

// TestPipelineServer runs the TCP service end to end: a server wrapping a
// QoS system, a client submitting a workload burst, and the admission
// accounting matching what the client observed.
func TestPipelineServer(t *testing.T) {
	sys, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		t.Fatal(err)
	}
	srv := qosnet.NewServer(sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	c, err := qosnet.DialBinary(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	delayedSeen := int64(0)
	for i := int64(0); i < 200; i++ {
		res, err := c.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected {
			t.Fatal("delay policy must not reject")
		}
		if res.Delayed {
			delayedSeen++
		}
		if res.RespMS > 0.133 {
			t.Fatalf("request %d response %.6f exceeds guarantee", i, res.RespMS)
		}
	}
	reqs, delayed, rejected, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if reqs != 200 || rejected != 0 {
		t.Errorf("stats: reqs=%d rejected=%d", reqs, rejected)
	}
	if delayed != delayedSeen {
		t.Errorf("server counted %d delayed, client saw %d", delayed, delayedSeen)
	}
}

// TestExamplesOverTheWire builds and runs the two examples that drive a
// live server through the binary client, and checks each exits cleanly
// with its closing line.
func TestExamplesOverTheWire(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs example binaries")
	}
	for _, ex := range []struct {
		pkg  string
		args []string
		last string
	}{
		{"cloudserver", []string{"-tenants", "2", "-requests", "20"}, "every admitted request met the fixed response-time guarantee"},
		{"degraded", nil, "recovered array"},
	} {
		bin := filepath.Join(t.TempDir(), ex.pkg)
		if out, err := exec.Command("go", "build", "-o", bin, "./examples/"+ex.pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", ex.pkg, err, out)
		}
		out, err := exec.Command(bin, ex.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s exited with %v:\n%s", ex.pkg, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if last := lines[len(lines)-1]; !strings.Contains(last, ex.last) {
			t.Errorf("%s closing line %q, want it to contain %q", ex.pkg, last, ex.last)
		}
	}
}

// TestPipelineSyntheticMatchesPaperGuarantees is the Table III headline as
// an integration test: generate the paper's synthetic workload, replay on
// the interval-aligned system, and confirm the guarantee for all of
// M ∈ {1, 2, 3}.
func TestPipelineSyntheticMatchesPaperGuarantees(t *testing.T) {
	cases := []struct {
		m        int
		k        int
		interval float64
	}{
		{1, 5, 0.133},
		{2, 14, 0.266},
		{3, 27, 0.399},
	}
	for _, cse := range cases {
		tr, err := trace.Synthetic(trace.SyntheticConfig{
			IntervalMS: cse.interval, BlocksPerInterval: cse.k,
			TotalRequests: 5 * cse.k * 50, PoolSize: 36, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(core.Config{
			Design: design.Paper931(), M: cse.m, IntervalMS: cse.interval,
			DisableFIM: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := sys.ReplayAligned(tr)
		if rep.MaxResponse > cse.interval+1e-9 {
			t.Errorf("M=%d: max response %.4f exceeds interval %.3f", cse.m, rep.MaxResponse, cse.interval)
		}
	}
}

// TestPipelineTracegenFormatStability guards the on-disk format: a trace
// written by this version must parse to identical bytes when re-written.
func TestPipelineTracegenFormatStability(t *testing.T) {
	tr, err := trace.Synthetic(trace.SyntheticConfig{
		IntervalMS: 0.133, BlocksPerInterval: 5, TotalRequests: 200, PoolSize: 36, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	if err := trace.Write(&a, tr); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := trace.Write(&b, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("format round trip is not byte-stable")
	}
}
