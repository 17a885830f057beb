package qosnet

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"time"

	"flashqos/internal/admission"
	"flashqos/internal/core"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

// errUnknownTenant is the uniform refusal for a submission tagged with an
// index (binary) or name (text) that no active tenant holds: both
// protocols answer with this exact message, never by silently running the
// request untenanted.
var errUnknownTenant = errors.New("unknown tenant")

// tenantEntry converts one tenant's aggregated shard counters to wire form.
func tenantEntry(tc shard.TenantCounters) wire.TenantEntry {
	return wire.TenantEntry{
		Index: tc.Index,
		Spec: wire.TenantSpec{
			Name:    tc.Spec.Name,
			Reserve: int32(tc.Spec.Reserve),
			Limit:   int32(tc.Spec.Limit),
			Weight:  tc.Spec.Weight,
		},
		Admitted:  tc.Admitted,
		Rejected:  tc.Rejected,
		OverLimit: tc.OverLimit,
		Deficit:   tc.Deficit,
	}
}

// maxBatchBlocks caps one OpBatch request; larger batches get an error
// frame (and the payload cap usually refuses them first).
const maxBatchBlocks = 1 << 16

// maxBurstFrames caps how many pipelined submit frames are drained into
// one burst before admission runs. Reader.More can stay true indefinitely
// under a continuous stream, so the cap bounds response latency and the
// per-connection burst scratch (one outcome frame per collected request).
const maxBurstFrames = 1024

// toWireOutcome converts a core outcome to its wire form. Rejected
// outcomes carry device -1 and zeroed timings, matching the text
// protocol's bare REJECTED line.
func toWireOutcome(out core.Outcome) wire.Outcome {
	if out.Rejected {
		o := wire.Outcome{Device: -1, Status: wire.StatusRejected}
		if out.Unavailable {
			o.Status |= wire.StatusUnavailable
		}
		if out.OverLimit {
			o.Status |= wire.StatusOverLimit
		}
		return o
	}
	o := wire.Outcome{Device: int32(out.Device), DelayMS: out.Delay, RespMS: out.Response()}
	if out.Delayed {
		o.Status |= wire.StatusDelayed
	}
	return o
}

// handleBinary serves one framed connection. Requests are processed in
// arrival order (admission is fast enough that per-connection concurrency
// would only buy reordering); the request ID is echoed on every response,
// so clients may pipeline arbitrarily deep and demultiplex completions.
//
// Pipelined READ/WRITE frames are drained into a burst before admitting:
// Reader.More tells, for free, whether the read buffer holds another
// complete frame, so every frame that arrived in one socket fill is
// collected and admitted burst-wise. Each request is routed to its owning
// shard while its frame is decoded (the bytes are already hot) into a
// per-shard bucket, so every shard admits one contiguous sub-burst with
// no scatter indirection and its ledger stripes are touched once per
// burst. Outcomes are bit-identical to per-frame submission; response
// frames encode append-style into one scratch buffer flushed with a
// single write, grouped by shard — request IDs are echoed on every
// response, so the protocol permits the reordering (BinaryClient demuxes
// by ID). Other opcodes settle the pending burst first.
func (s *Server) handleBinary(conn net.Conn, r *bufio.Reader, st *stripe) {
	rd := wire.NewReader(r, s.opts.MaxPayloadBytes)
	bw := bufio.NewWriterSize(conn, connReadBuf)
	wr := wire.NewWriter(bw)
	scratch := make([]byte, 0, 256)
	var blocks []int64      // OpBatch request scratch
	var outs []wire.Outcome // OpBatch response scratch
	var gauges []wire.ShardGauge
	nshards := s.arr.Shards()
	var (
		shIDs     = make([][]uint64, nshards)        // request IDs, bucketed by shard
		shReqs    = make([][]core.BurstReq, nshards) // the collected burst, bucketed by shard
		shSc      = make([]core.BurstScratch, nshards)
		collected int    // requests in the pending burst, all buckets
		burstResp []byte // encoded outcome frames for one burst
		batchSc   shard.BatchScratch
		dataBuf   []byte // OpGet payload scratch
	)
	hasHealth := s.anyHealth()
	arrival := -1.0 // virtual arrival stamp, renewed per socket fill

	// flushBurst admits the collected burst shard by shard and writes its
	// outcome frames: straight to the socket in one write when nothing
	// earlier sits in the bufio buffer (the common case — one syscall for
	// the whole burst), through the buffer otherwise so error responses
	// keep their place in the stream.
	flushBurst := func() error {
		if collected == 0 {
			return nil
		}
		collected = 0
		burstResp = burstResp[:0]
		for sh := 0; sh < nshards; sh++ {
			reqs := shReqs[sh]
			if len(reqs) == 0 {
				continue
			}
			bouts := s.submitBurstShard(st, sh, reqs, &shSc[sh], hasHealth, arrival)
			ids := shIDs[sh]
			for i := range bouts {
				op := uint8(wire.OpSubmit)
				if reqs[i].Write {
					op = wire.OpWrite
				}
				burstResp = wire.AppendOutcomeFrame(burstResp,
					wire.Header{Opcode: op, ID: ids[i]}, toWireOutcome(bouts[i]))
			}
			shIDs[sh], shReqs[sh] = ids[:0], reqs[:0]
		}
		if bw.Buffered() == 0 {
			_, err := conn.Write(burstResp)
			return err
		}
		_, err := bw.Write(burstResp)
		return err
	}

	for {
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		h, payload, err := rd.Next()
		if err != nil {
			// A burst can be pending here — More counts a buffered
			// malformed header as a frame — and its requests were already
			// well-formed: answer them before reporting the error.
			if flushBurst() != nil {
				return
			}
			// A framing violation (bad magic/version, oversized length,
			// truncated frame) cannot be resynchronized: best-effort error
			// frame, then close. Clean EOF just closes.
			if !errors.Is(err, io.EOF) {
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				wr.WriteError(wire.Header{}, err.Error())
				bw.Flush()
			}
			return
		}
		if arrival < 0 {
			arrival = s.now()
		}
		resp := wire.Header{Opcode: h.Opcode, ID: h.ID}
		if h.Opcode == wire.OpSubmit || h.Opcode == wire.OpWrite {
			var (
				block  int64
				tenant int32
				perr   error
			)
			if h.Flags&wire.FlagTenant != 0 {
				// Tenant-tagged request: the payload carries a trailing
				// uvarint index, validated lock-free against the active-slot
				// table. An unknown index gets a uniform error frame — never
				// a silent fall back to the untenanted path.
				block, tenant, perr = wire.ParseTenantBlock(payload)
				if perr == nil && !s.arr.TenantActive(tenant) {
					perr = errUnknownTenant
				}
			} else {
				block, perr = wire.ParseBlock(payload)
			}
			if perr != nil {
				// The burst collected so far answers first so responses
				// stay in request order.
				if flushBurst() != nil {
					return
				}
				msg := "bad block payload"
				if perr == errUnknownTenant {
					msg = perr.Error()
				}
				if wr.WriteError(resp, msg) != nil {
					return
				}
			} else {
				sh := 0
				if nshards > 1 {
					sh = shard.Route(block, nshards)
				}
				shIDs[sh] = append(shIDs[sh], h.ID)
				shReqs[sh] = append(shReqs[sh], core.BurstReq{Block: block, Tenant: tenant, Write: h.Opcode == wire.OpWrite})
				collected++
				// Keep draining while the read buffer holds further
				// complete frames — they arrived together and admit as one
				// burst. The cap bounds latency and scratch growth under a
				// stream that never drains.
				if rd.More() && collected < maxBurstFrames {
					continue
				}
				if flushBurst() != nil {
					return
				}
			}
			if !rd.More() {
				if bw.Flush() != nil {
					return
				}
				arrival = -1 // next frame comes off a fresh fill
			}
			continue
		}
		// Every other opcode settles the pending burst first: its requests
		// arrived earlier and their responses go out earlier.
		if flushBurst() != nil {
			return
		}
		switch h.Opcode {
		case wire.OpBatch:
			var perr error
			blocks, perr = wire.ParseBatchReq(payload, blocks)
			if perr != nil || len(blocks) > maxBatchBlocks {
				err = wr.WriteError(resp, "bad batch payload")
				break
			}
			if outs != nil {
				outs = outs[:0]
			}
			for _, out := range s.submitBatch(st, blocks, &batchSc, hasHealth, arrival) {
				outs = append(outs, toWireOutcome(out))
			}
			scratch = wire.AppendBatchResp(scratch[:0], outs)
			err = wr.WriteFrame(resp, scratch)
		case wire.OpMap:
			block, perr := wire.ParseBlock(payload)
			if perr != nil {
				err = wr.WriteError(resp, "bad block payload")
				break
			}
			i := s.arr.ShardOf(block)
			sys := s.arr.System(i)
			base := i * s.arr.DevicesPerShard()
			m := wire.MapResp{DesignBlock: int32(sys.Mapper().DesignBlock(block))}
			for _, d := range sys.Replicas(block) {
				m.Devices = append(m.Devices, int32(base+d))
			}
			scratch = wire.AppendMapResp(scratch[:0], m)
			err = wr.WriteFrame(resp, scratch)
		case wire.OpStats:
			req, del, rej, sum := s.totals()
			avg := 0.0
			if del > 0 {
				avg = sum / float64(del)
			}
			scratch = wire.AppendStats(scratch[:0], wire.Stats{
				Requests: req, Delayed: del, Rejected: rej, AvgDelayMS: avg,
			})
			err = wr.WriteFrame(resp, scratch)
		case wire.OpMetrics:
			scratch = s.appendMetrics(scratch[:0], hasHealth)
			err = wr.WriteFrame(resp, scratch)
		case wire.OpFail, wire.OpRecover:
			dev, perr := wire.ParseDevice(payload)
			if perr != nil {
				err = wr.WriteError(resp, "bad device payload")
				break
			}
			if !hasHealth {
				err = wr.WriteError(resp, "no health monitor")
				break
			}
			if int(dev) >= s.arr.Devices() {
				err = wr.WriteError(resp, "bad device "+strconv.Itoa(int(dev)))
				break
			}
			state, effS, aerr := s.adminFailRecover(h.Opcode == wire.OpFail, int(dev))
			if aerr != nil {
				err = wr.WriteError(resp, aerr.Error())
				break
			}
			scratch = wire.AppendAdminResp(scratch[:0], wire.AdminResp{
				EffectiveS: int32(effS), State: state,
			})
			err = wr.WriteFrame(resp, scratch)
		case wire.OpHealth:
			if !hasHealth {
				err = wr.WriteError(resp, "no health monitor")
				break
			}
			alive, pending, done := s.healthTotals()
			hrep := wire.Health{
				Devices:        int32(s.arr.Devices()),
				Alive:          int32(alive),
				EffectiveS:     int32(s.arr.EffectiveS()),
				FullS:          int32(s.arr.S()),
				RebuildPending: int32(pending),
				RebuildDone:    done,
			}
			scratch = scratch[:0]
			scratch = wire.AppendInt32(scratch, hrep.Devices)
			scratch = wire.AppendInt32(scratch, hrep.Alive)
			scratch = wire.AppendInt32(scratch, hrep.EffectiveS)
			scratch = wire.AppendInt32(scratch, hrep.FullS)
			scratch = wire.AppendInt32(scratch, hrep.RebuildPending)
			scratch = wire.AppendInt64(scratch, hrep.RebuildDone)
			scratch = wire.AppendUint32(scratch, uint32(s.arr.Devices()))
			for g := 0; g < s.arr.Devices(); g++ {
				scratch = wire.AppendInt32(scratch, int32(g))
				mon, local := s.monitorFor(g)
				if mon == nil {
					scratch = wire.AppendFloat64(scratch, 0)
					scratch = append(scratch, byte(len("unmonitored")))
					scratch = append(scratch, "unmonitored"...)
					continue
				}
				scratch = wire.AppendFloat64(scratch, mon.EWMA(local))
				state := mon.State(local).String()
				scratch = append(scratch, byte(len(state)))
				scratch = append(scratch, state...)
			}
			err = wr.WriteFrame(resp, scratch)
		case wire.OpShardStats:
			gauges = s.shardGauges(gauges)
			scratch = wire.AppendShardStats(scratch[:0], gauges)
			err = wr.WriteFrame(resp, scratch)
		case wire.OpGet:
			block, perr := wire.ParseBlock(payload)
			if perr != nil {
				err = wr.WriteError(resp, "bad block payload")
				break
			}
			if s.opts.Store == nil {
				err = wr.WriteError(resp, "no data store")
				break
			}
			out, b, gerr := s.dataGet(st, block, hasHealth, arrival, dataBuf[:0])
			if cap(b) > cap(dataBuf) {
				dataBuf = b // keep the grown buffer for the connection
			}
			if gerr != nil {
				err = wr.WriteError(resp, gerr.Error())
				break
			}
			scratch = wire.AppendGetResp(scratch[:0], toWireOutcome(out), b)
			err = wr.WriteFrame(resp, scratch)
		case wire.OpPut:
			block, data, perr := wire.ParsePutReq(payload)
			if perr != nil {
				err = wr.WriteError(resp, "bad put payload")
				break
			}
			if s.opts.Store == nil {
				err = wr.WriteError(resp, "no data store")
				break
			}
			out, werr := s.dataPut(st, block, data, hasHealth, arrival)
			if werr != nil {
				err = wr.WriteError(resp, werr.Error())
				break
			}
			err = wr.WriteOutcome(resp, toWireOutcome(out))
		case wire.OpTenantHello:
			names, perr := wire.ParseTenantHelloReq(payload)
			if perr != nil {
				err = wr.WriteError(resp, "bad tenant hello payload")
				break
			}
			idx := make([]int32, len(names))
			for i, n := range names {
				idx[i] = s.arr.TenantIndex(n)
			}
			scratch = wire.AppendTenantHelloResp(scratch[:0], idx)
			err = wr.WriteFrame(resp, scratch)
		case wire.OpTenant:
			cmd, spec, perr := wire.ParseTenantReq(payload)
			if perr != nil {
				err = wr.WriteError(resp, "bad tenant payload")
				break
			}
			switch cmd {
			case wire.TenantCmdSet:
				idx, terr := s.arr.TenantSet(admission.TenantSpec{
					Name:    spec.Name,
					Reserve: int(spec.Reserve),
					Limit:   int(spec.Limit),
					Weight:  spec.Weight,
				})
				if terr != nil {
					err = wr.WriteError(resp, terr.Error())
					break
				}
				scratch = wire.AppendInt32(scratch[:0], idx)
				err = wr.WriteFrame(resp, scratch)
			case wire.TenantCmdGet:
				tc, ok := s.arr.TenantGet(spec.Name)
				if !ok {
					err = wr.WriteError(resp, errUnknownTenant.Error())
					break
				}
				scratch = wire.AppendTenantStats(scratch[:0], []wire.TenantEntry{tenantEntry(tc)})
				err = wr.WriteFrame(resp, scratch)
			case wire.TenantCmdDel:
				if terr := s.arr.TenantDel(spec.Name); terr != nil {
					err = wr.WriteError(resp, terr.Error())
					break
				}
				err = wr.WriteFrame(resp, nil)
			}
		case wire.OpTenantStats:
			var entries []wire.TenantEntry
			for _, tc := range s.arr.TenantStats() {
				entries = append(entries, tenantEntry(tc))
			}
			scratch = wire.AppendTenantStats(scratch[:0], entries)
			err = wr.WriteFrame(resp, scratch)
		case wire.OpQuit:
			bw.Flush()
			return
		default:
			err = wr.WriteError(resp, "unknown opcode "+strconv.Itoa(int(h.Opcode)))
		}
		if err != nil {
			return
		}
		// Flush only when no further complete frame is buffered — i.e. when
		// the next Next call may block on the network. A pipelined burst
		// thus costs one write syscall. A buffered malformed header counts
		// as "more": Next fails on it without blocking and that error path
		// flushes.
		if !rd.More() {
			if bw.Flush() != nil {
				return
			}
			arrival = -1 // next frame comes off a fresh fill
		}
	}
}
