package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/health"
	"flashqos/internal/pack"
	"flashqos/internal/proxy"
	"flashqos/internal/qosnet"
	"flashqos/internal/retrieval"
	"flashqos/internal/sampling"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

// The layer replay walks a prefix of the workload's own stream through
// the layers' exported functions, single-goroutine, in the order the
// server composes them. Timing ops are cheap, so many are replayed in big
// batches; pack ops wait out group commits, so fewer, in small batches,
// until a time budget is spent.
const (
	replayTimingOps   = 200000
	replayTimingBatch = 1024
	replayPackOps     = 20000
	replayPackBatch   = 64
	replayPackBudget  = 1500 * time.Millisecond

	rttTimingOps  = 2000
	rttPackBudget = time.Second
	burstLen      = 64 // shard.burst_ns_per_req: requests per SubmitBurst
)

// layerBench measures the layers from outside, in this process.
type layerBench struct {
	w     workload
	cfg   *config
	clk   clock
	ops   []op
	dueMS []float64 // arrival of ops[i] on the array's clock, ms
	spans *spanLog
	table *sampling.Table // P_k table, sampled once and shared by every ε>0 array
	r     *result
	perOp map[string]float64 // budget rows: ns per replayed op, by layer

	corePathNS float64 // standalone estimate of one op's time inside Array.Submit
}

// totalShards is the number of (9,3,1) arrays the workload's blocks are
// split over, in process or out.
func (w workload) totalShards() int {
	if w.backends > 0 {
		return w.shards * w.backends
	}
	return w.shards
}

// newArray builds the array qosd would for this workload: same design,
// epsilon, tenants and health monitors. Pricing is the mem backend's, as
// it is for every backend; payload bytes go to a pack.Store held beside
// the array.
func (lb *layerBench) newArray(shards int, epsilon float64, tenants bool) (*shard.Array, error) {
	cfg := core.Config{N: designN, C: designC, M: designM, Epsilon: epsilon, Backend: core.MemBackend{}}
	if epsilon > 0 {
		if lb.table == nil {
			sys, err := core.New(core.Config{N: designN, C: designC, M: designM, Backend: core.MemBackend{}})
			if err != nil {
				return nil, err
			}
			// The options core.New itself samples with.
			lb.table, err = sampling.Estimate(sys.Allocator(), sampling.Options{MaxK: 2*designN + sys.S(), Seed: 1})
			if err != nil {
				return nil, err
			}
		}
		cfg.Table = lb.table
	}
	arr, err := shard.New(shards, cfg)
	if err != nil {
		return nil, err
	}
	if tenants {
		if err := arr.SetTenants(lb.w.tenants); err != nil {
			return nil, err
		}
	}
	// qosd's defaults: -suspect-after 3 -fail-after 10 -rebuild-rate 200.
	if err := arr.NewHealthMonitors(200, health.Config{SuspectAfter: 3, FailAfter: 10}); err != nil {
		return nil, err
	}
	return arr, nil
}

// timed runs fn, records it as one span covering count calls, and returns
// ns per call.
func (lb *layerBench) timed(name string, parent uint64, count int, fn func()) float64 {
	id := lb.spans.newID()
	t0 := lb.clk.now()
	fn()
	t1 := lb.clk.now()
	lb.spans.add(span{Name: name, ID: id, Parent: parent, Start: t0, End: t1, Count: count})
	if count == 0 {
		return 0
	}
	return float64(t1-t0) / float64(count)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// replay walks ops through wire encode → wire.Reader.Next → ShardOf →
// Array.Submit* at the request's due time → pack Get/Put on the outcome's
// replicas → reply encode → reply decode, one span per layer per batch.
// It returns how many ops it replayed.
func (lb *layerBench) replay(arr *shard.Array, store *pack.Store, maxOps, batch int, budget time.Duration) (int, error) {
	w := lb.w
	var (
		reqBuf, respBuf []byte
		outs            = make([]core.Outcome, batch)
		payloads        [][]byte
		getBuf          []byte
		version         = uint64(1) << 32 // above anything the preload wrote
	)
	if w.pack {
		payloads = make([][]byte, batch)
		for i := range payloads {
			payloads[i] = make([]byte, payloadSize)
		}
	}
	deadline := time.Now().Add(budget)
	done := 0
	for done < maxOps && (budget == 0 || time.Now().Before(deadline)) {
		b := lb.ops[done:min(done+batch, maxOps)]
		due := lb.dueMS[done:]
		if w.pack {
			version++
			for i, o := range b {
				if o.write {
					fillPayload(payloads[i], o.block, version)
				}
			}
		}
		var rerr error
		batchID := lb.spans.newID()
		t0 := lb.clk.now()

		lb.timed("wire.encode_req", batchID, len(b), func() {
			reqBuf = reqBuf[:0]
			for i, o := range b {
				var p []byte
				if w.pack && o.write {
					p = payloads[i]
				}
				reqBuf = appendRequest(reqBuf, w, o, uint64(done+i), p)
			}
		})
		lb.timed("wire.decode_req", batchID, len(b), func() {
			rd := wire.NewReader(bufio.NewReaderSize(bytes.NewReader(reqBuf), 64<<10), 0)
			for range b {
				h, payload, err := rd.Next()
				if err != nil {
					rerr = err
					return
				}
				switch {
				case h.Opcode == wire.OpPut:
					blk, data, _ := wire.ParsePutReq(payload)
					sink += int(blk) + len(data)
				case h.Flags&wire.FlagTenant != 0:
					blk, t, _ := wire.ParseTenantBlock(payload)
					sink += int(blk) + int(t)
				default:
					blk, _ := wire.ParseBlock(payload)
					sink += int(blk)
				}
			}
		})
		lb.timed("shard.route", batchID, len(b), func() {
			for _, o := range b {
				sink += arr.ShardOf(o.block)
			}
		})
		lb.timed("shard.submit", batchID, len(b), func() {
			for i, o := range b {
				switch {
				case o.tenant != 0 && o.write:
					outs[i] = arr.SubmitWriteTenant(due[i], o.block, o.tenant)
				case o.tenant != 0:
					outs[i] = arr.SubmitTenant(due[i], o.block, o.tenant)
				case o.write:
					outs[i] = arr.SubmitWrite(due[i], o.block)
				default:
					outs[i] = arr.Submit(due[i], o.block)
				}
			}
		})
		if w.pack {
			// Pack calls are long enough to carry a span each.
			for i, o := range b {
				out := outs[i]
				if out.Rejected {
					continue
				}
				if !o.write {
					lb.timed("pack.get", batchID, 1, func() {
						getBuf, rerr = store.Get(out.Device, o.block, getBuf[:0])
					})
				} else {
					// The server's dataPut: every replica, one after another.
					sh := arr.ShardOf(o.block)
					for _, d := range arr.System(sh).Replicas(o.block) {
						lb.timed("pack.put", batchID, 1, func() {
							rerr = store.Put(sh*designN+d, o.block, payloads[i])
						})
					}
				}
				if rerr != nil {
					return done, fmt.Errorf("replay block %d: %w", o.block, rerr)
				}
			}
		}
		lb.timed("wire.encode_resp", batchID, len(b), func() {
			respBuf = respBuf[:0]
			for i, o := range b {
				h := wire.Header{Opcode: requestOpcode(w, o), ID: uint64(done + i)}
				wo := wireOutcome(outs[i])
				if w.pack && !o.write && !outs[i].Rejected {
					h.Len = uint32(wire.OutcomeSize + len(getBuf))
					respBuf = wire.AppendHeader(respBuf, h)
					respBuf = wire.AppendGetResp(respBuf, wo, getBuf)
				} else {
					respBuf = wire.AppendOutcomeFrame(respBuf, h, wo)
				}
			}
		})
		lb.timed("wire.decode_resp", batchID, len(b), func() {
			rd := wire.NewReader(bufio.NewReaderSize(bytes.NewReader(respBuf), 64<<10), 0)
			for range b {
				_, payload, err := rd.Next()
				if err != nil {
					rerr = err
					return
				}
				out, rest, _ := wire.ParseOutcome(payload)
				sink += int(out.Device) + len(rest)
			}
		})
		if rerr != nil {
			return done, fmt.Errorf("replay: %w", rerr)
		}
		lb.spans.add(span{Name: "replay.batch", ID: batchID, Start: t0, End: lb.clk.now(), Count: len(b)})
		done += len(b)
	}
	return done, nil
}

// wireOutcome is the server's core → wire outcome conversion.
func wireOutcome(out core.Outcome) wire.Outcome {
	if out.Rejected {
		return wire.Outcome{Device: -1, Status: wire.StatusRejected}
	}
	o := wire.Outcome{Device: int32(out.Device), DelayMS: out.Delay, RespMS: out.Response()}
	if out.Delayed {
		o.Status |= wire.StatusDelayed
	}
	return o
}

// wireAllocs counts heap allocations and bytes per op of the four wire
// codecs on one batch of the workload's frames.
func (lb *layerBench) wireAllocs() (allocs, bytesPerOp float64) {
	const rounds = 20
	n := min(len(lb.ops), replayTimingBatch)
	if lb.w.pack {
		n = min(n, replayPackBatch)
	}
	b := lb.ops[:n]
	payload := make([]byte, payloadSize)
	var reqBuf, respBuf []byte
	rdReq := bufio.NewReaderSize(nil, 64<<10)
	rdResp := bufio.NewReaderSize(nil, 64<<10)
	var src bytes.Reader
	var m0, m1 runtime.MemStats
	once := func() {
		reqBuf, respBuf = reqBuf[:0], respBuf[:0]
		for i, o := range b {
			var p []byte
			if lb.w.pack && o.write {
				p = payload
			}
			reqBuf = appendRequest(reqBuf, lb.w, o, uint64(i), p)
			respBuf = wire.AppendOutcomeFrame(respBuf, wire.Header{Opcode: requestOpcode(lb.w, o), ID: uint64(i)}, wire.Outcome{})
		}
		for _, pair := range []struct {
			buf []byte
			br  *bufio.Reader
		}{{reqBuf, rdReq}, {respBuf, rdResp}} {
			src.Reset(pair.buf)
			pair.br.Reset(&src)
			rd := wire.NewReader(pair.br, 0)
			for range b {
				h, _, _ := rd.Next()
				sink += int(h.ID)
			}
		}
	}
	once() // grow the buffers
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		once()
	}
	runtime.ReadMemStats(&m1)
	calls := float64(rounds * n)
	return float64(m1.Mallocs-m0.Mallocs) / calls, float64(m1.TotalAlloc-m0.TotalAlloc) / calls
}

// standalone times the layers the replay cannot see from outside — what
// runs inside Array.Submit — each alone on the replay's inputs.
func (lb *layerBench) standalone() error {
	n := len(lb.ops)
	ops, due := lb.ops, lb.dueMS
	root := lb.spans.newID()
	t0 := lb.clk.now()
	defer func() {
		lb.spans.add(span{Name: "standalone", ID: root, Start: t0, End: lb.clk.now(), Count: 1})
	}()

	oneSystem := func(eps float64) (*core.ConcurrentSystem, error) {
		arr, err := lb.newArray(1, eps, false)
		if err != nil {
			return nil, err
		}
		return arr.System(0), nil
	}
	cs, err := oneSystem(0)
	if err != nil {
		return err
	}
	admit := lb.timed("core.admit", root, n, func() {
		for i, o := range ops {
			sink += cs.Submit(due[i], o.block).Device
		}
	})
	csw, err := oneSystem(0)
	if err != nil {
		return err
	}
	admitWrite := lb.timed("core.admit_write", root, n, func() {
		for i, o := range ops {
			sink += csw.SubmitWrite(due[i], o.block).Device
		}
	})
	css, err := oneSystem(0.002)
	if err != nil {
		return err
	}
	admitStat := lb.timed("core.admit_stat", root, n, func() {
		for i, o := range ops {
			sink += css.Submit(due[i], o.block).Device
		}
	})
	replicas := make([][]int, n)
	for i, o := range ops {
		replicas[i] = cs.Replicas(o.block)
	}
	online := retrieval.NewOnline(designN, core.MemBackend{}.ReadLatencyMS())
	onlineNS := lb.timed("retrieval.online_submit", root, n, func() {
		for i := range ops {
			sink += online.Submit(due[i], replicas[i]).Device
		}
	})

	gate := 0.0
	if len(lb.w.tenants) > 0 {
		var per [2]float64
		for k, tagged := range []bool{false, true} {
			arr, err := lb.newArray(lb.w.totalShards(), lb.w.epsilon, true)
			if err != nil {
				return err
			}
			name := "admission.untagged_submit"
			if tagged {
				name = "admission.tagged_submit"
			}
			per[k] = lb.timed(name, root, n, func() {
				for i, o := range ops {
					if tagged {
						sink += arr.SubmitTenant(due[i], o.block, o.tenant).Device
					} else {
						sink += arr.Submit(due[i], o.block).Device
					}
				}
			})
		}
		gate = per[1] - per[0]
	}

	arr, err := lb.newArray(lb.w.totalShards(), lb.w.epsilon, len(lb.w.tenants) > 0)
	if err != nil {
		return err
	}
	reqs := make([]core.BurstReq, burstLen)
	var sc shard.BurstScratch
	bursts := n / burstLen
	burst := lb.timed("shard.burst", root, bursts*burstLen, func() {
		for k := 0; k < bursts; k++ {
			for j := range reqs {
				o := ops[k*burstLen+j]
				reqs[j] = core.BurstReq{Block: o.block, Tenant: o.tenant, Write: o.write}
			}
			sink += len(arr.SubmitBurst(due[k*burstLen], reqs, &sc))
		}
	})

	mon := arr.Monitor(0)
	svc := core.MemBackend{}.ReadLatencyMS()
	report := lb.timed("health.report", root, n, func() {
		for i := 0; i < n; i++ {
			mon.ReportSuccess(i%designN, svc)
		}
	})
	mask := lb.timed("health.mask", root, n, func() {
		for i := 0; i < n; i++ {
			sink += mon.Mask().Alive
		}
	})

	r := lb.r
	r.set(perLayer, "core.admit_ns", admit)
	r.set(perLayer, "core.admit_write_ns", admitWrite)
	r.set(perLayer, "core.admit_stat_ns", admitStat)
	r.set(perLayer, "core.self_ns", admit-onlineNS)
	r.set(perLayer, "retrieval.online_submit_ns", onlineNS)
	r.set(perLayer, "admission.gate_ns", gate)
	r.set(perLayer, "shard.burst_ns_per_req", burst)
	r.set(perLayer, "health.report_ns", report)
	r.set(perLayer, "health.mask_ns", mask)
	lb.perOp["retrieval.online_submit"] = onlineNS
	lb.perOp["admission.gate"] = gate
	// The admit path the workload's mix takes, and what is left of it once
	// retrieval is taken out; the tenant gate sits in front of it.
	path := admit
	if lb.w.epsilon > 0 {
		path = admitStat
	}
	path += (1 - lb.w.readFrac) * (admitWrite - admit)
	lb.perOp["core.self"] = path - onlineNS
	lb.corePathNS = path + gate
	return nil
}

// serve starts an in-process qosnet server on arr and returns its address
// and a stop function.
func serve(arr *shard.Array, store *pack.Store) (string, func(), error) {
	opts := qosnet.Options{Proto: qosnet.ProtoBinary}
	if store != nil {
		opts.Store = store
	}
	srv := qosnet.NewServerSharded(arr, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	return addr.String(), func() { srv.Close(); <-done }, nil
}

// rtt runs a depth-1 closed loop of the workload's own ops against addr
// from this goroutine — write one frame, read its reply — and returns the
// round trips in µs, reads first.
func (lb *layerBench) rtt(name, addr string, maxOps int, budget time.Duration) (reads, all []float64, err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	rd := wire.NewReader(bufio.NewReaderSize(conn, 64<<10), 0)
	payload := make([]byte, payloadSize)
	var buf []byte
	deadline := time.Now().Add(budget)
	root := lb.spans.newID()
	start := lb.clk.now()
	n := 0
	for ; n < maxOps && n < len(lb.ops) && (budget == 0 || time.Now().Before(deadline)); n++ {
		o := lb.ops[n]
		var p []byte
		if lb.w.pack && o.write {
			fillPayload(payload, o.block, 1<<33+uint64(n))
			p = payload
		}
		buf = appendRequest(buf[:0], lb.w, o, uint64(n), p)
		t0 := lb.clk.now()
		if _, err := conn.Write(buf); err != nil {
			return nil, nil, err
		}
		h, body, err := rd.Next()
		if err != nil {
			return nil, nil, err
		}
		us := float64(lb.clk.now()-t0) / 1e3
		if h.Flags&wire.FlagError != 0 || h.ID != uint64(n) {
			return nil, nil, fmt.Errorf("%s: bad reply for block %d: %s", name, o.block, body)
		}
		all = append(all, us)
		if !o.write {
			reads = append(reads, us)
		}
	}
	lb.spans.add(span{Name: name, ID: root, Start: start, End: lb.clk.now(), Count: n})
	sort.Float64s(reads)
	return reads, all, nil
}

// packStore opens the in-process store the replay runs on: populated
// without fsync waits (which times the bare append), closed, and reopened
// with the workload's group-commit options (which times recovery).
func (lb *layerBench) packStore(dir string) (*pack.Store, error) {
	devices := designN * lb.w.totalShards()
	s, err := pack.Open(dir, devices, pack.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	arr, err := lb.newArray(lb.w.totalShards(), 0, false)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, payloadSize)
	root := lb.spans.newID()
	nosync := lb.timed("pack.put_nosync", root, packBlocks*designC, func() {
		for b := int64(0); b < packBlocks && err == nil; b++ {
			fillPayload(buf, b, 1)
			sh := arr.ShardOf(b)
			for _, d := range arr.System(sh).Replicas(b) {
				if err = s.Put(sh*designN+d, b, buf); err != nil {
					break
				}
			}
		}
	})
	if err == nil {
		err = s.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("populate pack store: %w", err)
	}
	stored, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	var store *pack.Store
	reopen := lb.timed("pack.recover", root, 1, func() {
		store, err = pack.Open(dir, devices, pack.Options{SyncInterval: packSync, SyncBytes: pack.DefaultSyncBytes})
	})
	if err != nil {
		return nil, err
	}
	lb.r.set(perLayer, "pack.put_nosync_us", nosync/1e3)
	lb.r.set(perLayer, "pack.recover_s", reopen/1e9)
	lb.r.set(perLayer, "pack.recover_mb_s", float64(stored)/1e6/(reopen/1e9))
	return store, nil
}

// packSpace reads the store's space accounting, then times a full
// compaction.
func (lb *layerBench) packSpace(store *pack.Store) error {
	var bytesOnDisk, garbage int64
	for d := 0; d < store.Devices(); d++ {
		st := store.Stats(d)
		bytesOnDisk += st.Bytes
		garbage += st.Garbage
	}
	var err error
	compact := lb.timed("pack.compact", 0, 1, func() { err = store.CompactAll(0) })
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	r := lb.r
	r.set(perLayer, "pack.bytes_per_user_byte", float64(bytesOnDisk)/float64(packBlocks*payloadSize))
	r.set(perLayer, "pack.garbage_frac", float64(garbage)/float64(bytesOnDisk))
	r.set(perLayer, "pack.compact_s", compact/1e9)
	r.set(perLayer, "pack.compact_mb_s", float64(bytesOnDisk)/1e6/(compact/1e9))
	return nil
}

// run measures every in-process layer metric of the workload and builds
// the per-op budget: the layers' per-op times plus qosnet.residual_us sum
// to the mean depth-1 round trip.
func (lb *layerBench) run() error {
	w, r := lb.w, lb.r
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			r.set(perLayer, d.name, 0) // layers this workload does not touch
		}
	}
	arr, err := lb.newArray(w.totalShards(), w.epsilon, len(w.tenants) > 0)
	if err != nil {
		return err
	}
	var store *pack.Store
	batch, budget := replayTimingBatch, time.Duration(0)
	if w.pack {
		dir, err := lb.cfg.procs.tempDir(lb.cfg.tmpDir, "layers-")
		if err != nil {
			return err
		}
		if store, err = lb.packStore(dir); err != nil {
			return err
		}
		defer store.Close()
		batch, budget = replayPackBatch, replayPackBudget
	}
	replayed, err := lb.replay(arr, store, len(lb.ops), batch, budget)
	if err != nil {
		return err
	}
	r.Info["replay.ops"] = float64(replayed)
	if err := lb.standalone(); err != nil {
		return err
	}

	selfNS, calls := layerTotals(lb.spans.spans)
	per := func(name string) float64 { // ns of self time per call
		if calls[name] == 0 {
			return 0
		}
		return float64(selfNS[name]) / float64(calls[name])
	}
	perReplayed := func(name string) float64 { return float64(selfNS[name]) / float64(replayed) }
	r.set(perLayer, "wire.encode_req_ns", per("wire.encode_req"))
	r.set(perLayer, "wire.decode_req_ns", per("wire.decode_req"))
	r.set(perLayer, "wire.encode_resp_ns", per("wire.encode_resp"))
	r.set(perLayer, "wire.decode_resp_ns", per("wire.decode_resp"))
	allocs, bytesPerOp := lb.wireAllocs()
	r.set(perLayer, "wire.allocs_per_op", allocs)
	r.set(perLayer, "wire.bytes_per_op", bytesPerOp)
	r.set(perLayer, "shard.route_ns", per("shard.route"))
	r.set(perLayer, "shard.submit_ns", per("shard.submit"))
	for _, name := range []string{"wire.encode_req", "wire.decode_req", "shard.route", "wire.encode_resp", "wire.decode_resp"} {
		lb.perOp[name] = perReplayed(name)
	}
	// Array.Submit holds core, which holds retrieval and the tenant gate;
	// those were timed alone on the same inputs and are taken out here.
	lb.perOp["shard.self"] = perReplayed("shard.submit") - lb.corePathNS
	if w.pack {
		put, get := per("pack.put"), per("pack.get")
		r.set(perLayer, "pack.put_us", put/1e3)
		r.set(perLayer, "pack.get_us", get/1e3)
		if put > 0 {
			r.set(perLayer, "pack.sync_wait_share", 1-r.Metrics["pack.put_nosync_us"].Value*1e3/put)
		}
		lb.perOp["pack.put"] = perReplayed("pack.put")
		lb.perOp["pack.get"] = perReplayed("pack.get")
	}

	// Depth-1 round trips against an in-process server over the same
	// store, on a fresh array: the server stamps arrivals from its own
	// start, far behind where the replay left this one.
	srvArr, err := lb.newArray(w.totalShards(), w.epsilon, len(w.tenants) > 0)
	if err != nil {
		return err
	}
	addr, stop, err := serve(srvArr, store)
	if err != nil {
		return err
	}
	rttOps, rttBudget := rttTimingOps, time.Duration(0)
	if w.pack {
		rttOps, rttBudget = replayPackOps, rttPackBudget
	}
	reads, all, err := lb.rtt("qosnet.rtt", addr, rttOps, rttBudget)
	stop()
	if err != nil {
		return err
	}
	r.set(perLayer, "qosnet.rtt_p50_us", quantile(reads, 0.5))
	rttMean := mean(all)
	sum := 0.0
	for _, ns := range lb.perOp {
		sum += ns / 1e3
	}
	// Means add up where medians do not: the budget is drawn against the
	// mean round trip of the same op mix the layers were fed.
	r.set(perLayer, "qosnet.residual_us", rttMean-sum)
	r.Info["budget.rtt_mean_us"] = rttMean
	for name, ns := range lb.perOp {
		r.Info["budget."+name+"_us"] = ns / 1e3
	}
	r.Info["budget.qosnet.residual_us"] = rttMean - sum

	if w.backends > 0 {
		hop, err := lb.proxyHop(quantile(reads, 0.5))
		if err != nil {
			return err
		}
		r.set(perLayer, "proxy.hop_p50_us", hop)
	}
	if w.pack {
		return lb.packSpace(store)
	}
	return nil
}

// proxyHop measures the depth-1 round trip through an in-process
// proxy.New over in-process backends, less the direct round trip.
func (lb *layerBench) proxyHop(directP50 float64) (float64, error) {
	var addrs []string
	for i := 0; i < lb.w.backends; i++ {
		arr, err := lb.newArray(lb.w.shards, lb.w.epsilon, false)
		if err != nil {
			return 0, err
		}
		addr, stop, err := serve(arr, nil)
		if err != nil {
			return 0, err
		}
		defer stop()
		addrs = append(addrs, addr)
	}
	p, err := proxy.New(addrs, proxy.Options{ProbeInterval: -1})
	if err != nil {
		return 0, err
	}
	defer p.Close()
	front, err := p.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		p.Serve()
	}()
	reads, _, err := lb.rtt("proxy.rtt", front.String(), rttTimingOps, 0)
	p.Close()
	<-served
	if err != nil {
		return 0, err
	}
	return quantile(reads, 0.5) - directP50, nil
}
