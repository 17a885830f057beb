package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"flashqos/internal/admission"
	"flashqos/internal/trace"
	"flashqos/internal/wire"
)

// The array every workload serves: the paper's (9,3,1) design at M=1.
const (
	designN = 9
	designC = 3
	designM = 1
)

// Pack workloads move the paper's 8 KiB block over a working set that
// fits the OS page cache (pack has no cache of its own today): 4 096
// blocks = 32 MiB of user data, Zipf s=1.1.
const (
	payloadSize = trace.BlockSize
	packBlocks  = 4096
	packZipfS   = 1.1
	packSync    = 2 * time.Millisecond
)

// streamLen is how many ops one seed expands to. The paced phase takes a
// prefix; the saturated phase walks on from there and wraps.
const streamLen = 1 << 18

// workload fixes one traffic mix and the daemons it is served by. Rates
// and depths are constants of the benchmark, not of the machine.
type workload struct {
	name, why string

	shards   int                    // qosd -shards (per daemon)
	backends int                    // >0: that many qosd behind one qosproxy
	pack     bool                   // GET/PUT of 8 KiB payloads on -backend pack
	epsilon  float64                // qosd -epsilon
	tenants  []admission.TenantSpec // tagged alternately on every request

	// pacedShare is the paced phase's share of the measuring time; the
	// saturated phase gets the rest. The timing workloads answer 10 000
	// paced requests a second, so their latency sample is large after a
	// few seconds and the noisier throughput figure gets the longer part;
	// the pack workloads are the other way round (100-1 000 requests a
	// second paced, a throughput set by the fsync cadence).
	pacedShare float64
	readFrac   float64       // share of reads in the mix
	rate       float64       // paced phase, arrivals per second (Poisson)
	depth      int           // saturated phase, requests in flight per connection
	readLimit  time.Duration // on-time limit for READ/GET
	writeLimit time.Duration // on-time limit for WRITE/PUT

	// refWakeUS is the timer wake-up cost the median latencies are stated
	// at (see wakeScale): about what this workload's paced phase measured
	// on the machine the benchmark was written on. The less often the
	// cores are woken, the deeper they sleep, so it grows as the rate falls.
	refWakeUS float64
}

var workloads = []workload{
	{
		name:   "admit",
		why:    "untagged timing verbs on one qosd: wire, qosnet, shard, core burst path and retrieval do all the work; pack, proxy and the tenant gate do none",
		shards: 2, pacedShare: 0.4, readFrac: 0.9, rate: 10000, depth: 256,
		readLimit: time.Millisecond, writeLimit: time.Millisecond, refWakeUS: 20,
	},
	{
		name:   "admit_stat_tenant",
		why:    "same daemon and stream with epsilon>0 and every request tenant-tagged: the per-request statGate+mClock path instead of the burst path, so a gain for one admit path that costs the other shows",
		shards: 2, epsilon: 0.002, tenants: []admission.TenantSpec{{Name: "gold", Reserve: 2, Weight: 3}, {Name: "bronze", Reserve: 1, Weight: 1}},
		pacedShare: 0.4, readFrac: 0.9, rate: 10000, depth: 256,
		readLimit: time.Millisecond, writeLimit: time.Millisecond, refWakeUS: 20,
	},
	{
		name:   "proxy",
		why:    "the admit traffic through qosproxy over two one-shard qosd: the same array with the shard split moved out of process, so the difference from admit is the router tier",
		shards: 1, backends: 2, pacedShare: 0.4, readFrac: 0.9, rate: 10000, depth: 256,
		readLimit: time.Millisecond, writeLimit: time.Millisecond, refWakeUS: 20,
	},
	{
		name:   "pack_read",
		why:    "95:5 GET:PUT of 8 KiB payloads on the pack backend: pack read path and the qosnet data path dominate, and a GET queued behind a PUT on its connection shows in read_ontime_frac",
		shards: 1, pack: true, pacedShare: 0.75, readFrac: 0.95, rate: 1000, depth: 16,
		readLimit: time.Millisecond, writeLimit: 10 * time.Millisecond, refWakeUS: 40,
	},
	{
		name:   "pack_write",
		why:    "20:80 GET:PUT overwrites on the same store: group-commit wait, replica fan-out and garbage growth, so a read-side gain that costs writes or space shows",
		shards: 1, pack: true, pacedShare: 0.75, readFrac: 0.2, rate: 100, depth: 16,
		readLimit: time.Millisecond, writeLimit: 10 * time.Millisecond, refWakeUS: 70,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// qosdArgs is the command line of one qosd serving w (dataDir only for
// pack workloads).
func (w workload) qosdArgs(dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-proto", "binary",
		"-n", fmt.Sprint(designN), "-c", fmt.Sprint(designC), "-m", fmt.Sprint(designM),
		"-shards", fmt.Sprint(w.shards)}
	if w.pack {
		args = append(args, "-backend", "pack", "-data-dir", dataDir, "-pack-sync", packSync.String())
	} else {
		args = append(args, "-backend", "mem")
	}
	if w.epsilon > 0 {
		args = append(args, "-epsilon", fmt.Sprint(w.epsilon))
	}
	for _, t := range w.tenants {
		args = append(args, "-tenant", fmt.Sprintf("%s:%d:%d:%g", t.Name, t.Reserve, t.Limit, t.Weight))
	}
	return args
}

// op is one generated request. tenant is the 1-based tag (0 = untagged).
type op struct {
	block  int64
	write  bool
	tenant int32
}

// genOps expands a seed into the workload's request stream: block
// sequence, read/write choice and tenant tag. The daemons never see the
// seed, only the frames built from these ops.
func genOps(w workload, seed int64, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	if w.pack {
		z := rand.NewZipf(rng, packZipfS, 1, packBlocks-1)
		for i := range ops {
			ops[i].block = int64(z.Uint64())
		}
	} else {
		tr, err := trace.ExchangeLike(seed, 0.2)
		if err != nil {
			return nil, fmt.Errorf("exchange trace: %w", err)
		}
		for i := range ops {
			ops[i].block = tr.Records[i%len(tr.Records)].Block
		}
	}
	for i := range ops {
		ops[i].write = rng.Float64() >= w.readFrac
		if len(w.tenants) > 0 {
			ops[i].tenant = int32(i%len(w.tenants)) + 1
		}
	}
	return ops, nil
}

// genDues draws Poisson arrival offsets (ns from phase start) at rate per
// second until the phase length is covered.
func genDues(seed int64, rate float64, phase time.Duration) []int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var dues []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(phase) {
			return dues
		}
		dues = append(dues, int64(t))
	}
}

// connOf spreads requests over the load generator's connections. Pack
// workloads pin a block to one connection: the server applies one
// connection's frames in order, so a GET always follows every earlier PUT
// of its block and "version ≥ last acked" is checkable. (Two connections
// racing overwrites of one block can land in different orders on
// different replicas — a known gap, ROADMAP "replicas must agree" — and a
// benchmark must not fail on it.)
func connOf(w workload, o op, i, conns int) int {
	if w.pack {
		return int(o.block) % conns
	}
	return i % conns
}

// appendRequest encodes one request frame. For PUT, payload is the block's
// bytes; timing verbs and GET ignore it.
func appendRequest(buf []byte, w workload, o op, id uint64, payload []byte) []byte {
	switch {
	case w.pack && o.write:
		buf = wire.AppendHeader(buf, wire.Header{Opcode: wire.OpPut, ID: id, Len: uint32(8 + len(payload))})
		return wire.AppendPutReq(buf, o.block, payload)
	case w.pack:
		buf = wire.AppendHeader(buf, wire.Header{Opcode: wire.OpGet, ID: id, Len: 8})
		return wire.AppendBlock(buf, o.block)
	}
	h := wire.Header{Opcode: wire.OpSubmit, ID: id, Len: 8}
	if o.write {
		h.Opcode = wire.OpWrite
	}
	if o.tenant == 0 {
		buf = wire.AppendHeader(buf, h)
		return wire.AppendBlock(buf, o.block)
	}
	h.Flags = wire.FlagTenant
	// A tenant index below 128 is a one-byte uvarint.
	h.Len = 9
	buf = wire.AppendHeader(buf, h)
	return wire.AppendTenantBlock(buf, o.block, o.tenant)
}

// requestOpcode is the opcode appendRequest gives o, which the reply must
// echo.
func requestOpcode(w workload, o op) uint8 {
	switch {
	case w.pack && o.write:
		return wire.OpPut
	case w.pack:
		return wire.OpGet
	case o.write:
		return wire.OpWrite
	}
	return wire.OpSubmit
}

// Payload layout: block i64 | version u64 | filler | crc32c u32 over all
// that precedes it. The filler is a function of (block, version), so a
// payload names the write it came from and any torn or crossed write
// fails the checksum or the block check.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func fillPayload(dst []byte, block int64, version uint64) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(block))
	binary.LittleEndian.PutUint64(dst[8:], version)
	x := uint64(block)*0x9e3779b97f4a7c15 ^ version*0xbf58476d1ce4e5b9 | 1
	body := dst[16 : len(dst)-4]
	for i := 0; i+8 <= len(body); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(body[i:], x)
	}
	binary.LittleEndian.PutUint32(dst[len(dst)-4:], crc32.Checksum(dst[:len(dst)-4], castagnoli))
}

// checkPayload verifies a GET's bytes and returns the version they carry.
func checkPayload(b []byte, block int64) (version uint64, err error) {
	if len(b) != payloadSize {
		return 0, fmt.Errorf("block %d: payload is %d bytes, want %d", block, len(b), payloadSize)
	}
	if got := int64(binary.LittleEndian.Uint64(b)); got != block {
		return 0, fmt.Errorf("block %d: payload belongs to block %d", block, got)
	}
	if crc32.Checksum(b[:len(b)-4], castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return 0, fmt.Errorf("block %d: payload checksum mismatch", block)
	}
	return binary.LittleEndian.Uint64(b[8:]), nil
}

// violates reports whether an admitted reply's priced response exceeds
// the paper's bound of M service times (with float slack).
func violates(respMS, svcMS float64) bool {
	return respMS > float64(designM)*svcMS*(1+1e-9)+1e-9
}
