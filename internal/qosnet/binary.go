package qosnet

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"sync/atomic"
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

// session is one connection's dispatch state, whichever wire format the
// connection speaks: the pending submit burst, the reply scratch, and the
// arrival stamp of the current socket fill. serve is the one verb table;
// handleBinary feeds it frames off the socket, handleText feeds it frames
// translated from request lines.
type session struct {
	s         *Server
	st        *stripe
	hasHealth bool    // monitors attach before serving
	arrival   float64 // virtual arrival stamp of the current socket fill; < 0 until stamped
	out       []byte  // encoded response frames not yet written

	// The pending burst of READ/WRITE frames, bucketed by owning shard.
	shIDs     [][]uint64
	shReqs    [][]core.BurstReq
	shSc      []core.BurstScratch
	collected int // requests in the pending burst, all buckets

	scratch []byte // response payload scratch
	blocks  []int64
	outs    []wire.Outcome
	gauges  []wire.ShardGauge
	devs    []wire.DeviceHealth
	batchSc shard.BatchScratch
	dataBuf []byte // OpGet payload scratch

	// PUTs appended since the last write, whose replies wait for their
	// group commit, and the acker that completes them.
	puts []*pendingPut
	ack  *acker
}

func (s *Server) newSession(st *stripe) *session {
	n := s.arr.Shards()
	return &session{
		s:         s,
		st:        st,
		hasHealth: s.anyHealth(),
		arrival:   -1,
		shIDs:     make([][]uint64, n),
		shReqs:    make([][]core.BurstReq, n),
		shSc:      make([]core.BurstScratch, n),
	}
}

// stamp reads the virtual clock once per socket fill: every request drained
// from one read genuinely arrived together, and the clock stays off the
// per-request path. The connection loops reset arrival to -1 whenever the
// next read may block.
func (c *session) stamp() {
	if c.arrival < 0 {
		c.arrival = c.s.now()
	}
}

// fail appends an error frame to c.out.
func (c *session) fail(h wire.Header, msg string) { c.out = appendFail(c.out, h, msg) }

// appendFail appends an error frame: the request's opcode and ID,
// FlagError, and msg as payload.
func appendFail(dst []byte, h wire.Header, msg string) []byte {
	h.Flags |= wire.FlagError
	h.Len = uint32(len(msg))
	return append(wire.AppendHeader(dst, h), msg...)
}

// flushBurst admits the collected burst shard by shard and appends its
// outcome frames to c.out, grouped by shard. Each shard's slice keeps its
// arrival order (core.BurstReq semantics: outcomes bit-identical to
// per-request submission in input order), and the shard's request counter
// is bumped once per (shard, burst).
func (c *session) flushBurst() {
	if c.collected == 0 {
		return
	}
	c.collected = 0
	for sh, reqs := range c.shReqs {
		if len(reqs) == 0 {
			continue
		}
		outs := c.s.arr.SubmitBurstShard(sh, c.arrival, reqs, &c.shSc[sh])
		n := &c.st.shard[sh]
		n.Store(n.Load() + int64(len(reqs))) // single-writer, like bump
		ids := c.shIDs[sh]
		for i := range outs {
			c.s.account(c.st, &outs[i], c.hasHealth)
			op := uint8(wire.OpSubmit)
			if reqs[i].Write {
				op = wire.OpWrite
			}
			c.out = wire.AppendOutcomeFrame(c.out, wire.Header{Opcode: op, ID: ids[i]}, toWireOutcome(outs[i]))
		}
		c.shIDs[sh], c.shReqs[sh] = ids[:0], reqs[:0]
	}
}

// serve is the verb table: it answers one request frame by appending its
// response frame, or an error frame, to c.out, and reports whether the
// frame was OpQuit. A READ/WRITE frame joins the pending burst instead
// (the connection loop decides when the burst is admitted); every other
// opcode settles that burst first, so its requests — which arrived earlier
// — are answered earlier.
func (c *session) serve(h wire.Header, payload []byte) (quit bool) {
	s := c.s
	resp := wire.Header{Opcode: h.Opcode, ID: h.ID}
	if h.Opcode == wire.OpSubmit || h.Opcode == wire.OpWrite {
		var (
			block  int64
			tenant int32
			err    error
		)
		if h.Flags&wire.FlagTenant != 0 {
			// Tenant-tagged request: the payload carries a trailing uvarint
			// index, validated lock-free against the active-slot table. An
			// unknown index gets a uniform error frame — never a silent fall
			// back to the untenanted path.
			block, tenant, err = wire.ParseTenantBlock(payload)
			if err == nil && !s.arr.TenantActive(tenant) {
				err = errUnknownTenant
			}
		} else {
			block, err = wire.ParseBlock(payload)
		}
		if err != nil {
			// The burst collected so far answers first so responses stay
			// in request order.
			c.flushBurst()
			msg := "bad block payload"
			if err == errUnknownTenant {
				msg = err.Error()
			}
			c.fail(resp, msg)
			return false
		}
		sh := 0
		if len(c.shReqs) > 1 {
			sh = shard.Route(block, len(c.shReqs))
		}
		c.shIDs[sh] = append(c.shIDs[sh], h.ID)
		c.shReqs[sh] = append(c.shReqs[sh], core.BurstReq{Block: block, Tenant: tenant, Write: h.Opcode == wire.OpWrite})
		c.collected++
		return false
	}
	c.flushBurst()
	var (
		p   []byte // response payload
		msg string // error message; non-empty answers an error frame
	)
	switch h.Opcode {
	case wire.OpQuit:
		return true
	case wire.OpBatch:
		var err error
		if c.blocks, err = wire.ParseBatchReq(payload, c.blocks); err != nil || len(c.blocks) > maxBatchBlocks {
			msg = "bad batch payload"
			break
		}
		c.outs = c.outs[:0]
		for i, out := range s.arr.SubmitBatch(c.arrival, c.blocks, &c.batchSc) {
			bump(&c.st.shard[s.arr.ShardOf(c.blocks[i])])
			s.account(c.st, &out, c.hasHealth)
			c.outs = append(c.outs, toWireOutcome(out))
		}
		p = wire.AppendBatchResp(c.scratch[:0], c.outs)
	case wire.OpMap:
		block, err := wire.ParseBlock(payload)
		if err != nil {
			msg = "bad block payload"
			break
		}
		i := s.arr.ShardOf(block)
		sys := s.arr.System(i)
		base := i * s.arr.DevicesPerShard()
		m := wire.MapResp{DesignBlock: int32(sys.Mapper().DesignBlock(block))}
		for _, d := range sys.Replicas(block) {
			m.Devices = append(m.Devices, int32(base+d))
		}
		p = wire.AppendMapResp(c.scratch[:0], m)
	case wire.OpStats:
		req, del, rej, sum := s.totals()
		avg := 0.0
		if del > 0 {
			avg = sum / float64(del)
		}
		p = wire.AppendStats(c.scratch[:0], wire.Stats{Requests: req, Delayed: del, Rejected: rej, AvgDelayMS: avg})
	case wire.OpMetrics:
		p = s.appendMetrics(c.scratch[:0], c.hasHealth)
	case wire.OpFail, wire.OpRecover, wire.OpHealth:
		dev, err := wire.ParseDevice(payload)
		switch {
		case h.Opcode != wire.OpHealth && err != nil:
			msg = "bad device payload"
		case !c.hasHealth:
			msg = "no health monitor"
		case h.Opcode == wire.OpHealth:
			p = c.health()
		case int(dev) >= s.arr.Devices():
			msg = "bad device " + strconv.Itoa(int(dev))
		default:
			state, effS, err := s.adminFailRecover(h.Opcode == wire.OpFail, int(dev))
			if err != nil {
				msg = err.Error()
				break
			}
			p = wire.AppendAdminResp(c.scratch[:0], wire.AdminResp{EffectiveS: int32(effS), State: state})
		}
	case wire.OpShardStats:
		c.gauges = s.shardGauges(c.gauges)
		p = wire.AppendShardStats(c.scratch[:0], c.gauges)
	case wire.OpGet:
		block, err := wire.ParseBlock(payload)
		if err != nil {
			msg = "bad block payload"
			break
		}
		if s.opts.Store == nil {
			msg = "no data store"
			break
		}
		out, b, err := s.dataGet(c.st, block, c.hasHealth, c.arrival, c.dataBuf[:0])
		if cap(b) > cap(c.dataBuf) {
			c.dataBuf = b // keep the grown buffer for the connection
		}
		if err != nil {
			msg = err.Error()
			break
		}
		p = wire.AppendGetResp(c.scratch[:0], toWireOutcome(out), b)
	case wire.OpPut:
		block, data, err := wire.ParsePutReq(payload)
		if err != nil {
			msg = "bad put payload"
			break
		}
		if s.opts.Store == nil {
			msg = "no data store"
			break
		}
		pp := c.nextPut()
		out, pending, err := s.putAppend(c.st, block, data, c.arrival, pp)
		if pending {
			// The reply waits for the group commit; it goes here.
			pp.id, pp.at = h.ID, len(c.out)
			return false
		}
		c.puts = c.puts[:len(c.puts)-1]
		if err != nil {
			msg = err.Error()
			break
		}
		p = wire.AppendOutcome(c.scratch[:0], toWireOutcome(out))
	case wire.OpTenantHello:
		names, err := wire.ParseTenantHelloReq(payload)
		if err != nil {
			msg = "bad tenant hello payload"
			break
		}
		idx := make([]int32, len(names))
		for i, n := range names {
			idx[i] = s.arr.TenantIndex(n)
		}
		p = wire.AppendTenantHelloResp(c.scratch[:0], idx)
	case wire.OpTenant:
		cmd, spec, err := wire.ParseTenantReq(payload)
		if err != nil {
			msg = "bad tenant payload"
			break
		}
		switch cmd {
		case wire.TenantCmdSet:
			idx, err := s.arr.TenantSet(admission.TenantSpec{
				Name:    spec.Name,
				Reserve: int(spec.Reserve),
				Limit:   int(spec.Limit),
				Weight:  spec.Weight,
			})
			if err != nil {
				msg = err.Error()
				break
			}
			p = wire.AppendInt32(c.scratch[:0], idx)
		case wire.TenantCmdGet:
			tc, ok := s.arr.TenantGet(spec.Name)
			if !ok {
				msg = errUnknownTenant.Error()
				break
			}
			p = wire.AppendTenantStats(c.scratch[:0], []wire.TenantEntry{tenantEntry(tc)})
		case wire.TenantCmdDel:
			if err := s.arr.TenantDel(spec.Name); err != nil {
				msg = err.Error()
			}
		}
	case wire.OpTenantStats:
		var entries []wire.TenantEntry
		for _, tc := range s.arr.TenantStats() {
			entries = append(entries, tenantEntry(tc))
		}
		p = wire.AppendTenantStats(c.scratch[:0], entries)
	default:
		msg = "unknown opcode " + strconv.Itoa(int(h.Opcode))
	}
	if cap(p) > cap(c.scratch) {
		c.scratch = p[:0] // keep the grown buffer for the connection
	}
	if msg != "" {
		c.fail(resp, msg)
	} else {
		c.out = wire.AppendFrame(c.out, resp, p)
	}
	return false
}

// health builds the HEALTH report: the aggregate counters plus one entry
// per global device ("unmonitored" for a shard without a monitor).
func (c *session) health() []byte {
	s := c.s
	alive, pending, done := s.healthTotals()
	h := wire.Health{
		Devices:        int32(s.arr.Devices()),
		Alive:          int32(alive),
		EffectiveS:     int32(s.arr.EffectiveS()),
		FullS:          int32(s.arr.S()),
		RebuildPending: int32(pending),
		RebuildDone:    done,
		States:         c.devs[:0],
	}
	for g := 0; g < s.arr.Devices(); g++ {
		d := wire.DeviceHealth{Device: int32(g), State: "unmonitored"}
		if mon, local := s.monitorFor(g); mon != nil {
			d.EWMAMS, d.State = mon.EWMA(local), mon.State(local).String()
		}
		h.States = append(h.States, d)
	}
	c.devs = h.States
	return wire.AppendHealth(c.scratch[:0], h)
}

// handleBinary serves one framed connection. Requests are admitted and
// executed in arrival order on this read loop (admission is fast enough
// that per-connection concurrency would only buy reordering); the request
// ID is echoed on every response, so clients may pipeline arbitrarily
// deep and demultiplex completions.
//
// Pipelined READ/WRITE frames are drained into a burst before admitting:
// Reader.More tells, for free, whether the read buffer holds another
// complete frame, so every frame that arrived in one socket fill is
// collected and admitted burst-wise. Each request is routed to its owning
// shard while its frame is decoded (the bytes are already hot) into a
// per-shard bucket, so every shard admits one contiguous sub-burst with
// no scatter indirection and its ledger stripes are touched once per
// burst. Outcomes are bit-identical to per-frame submission; response
// frames encode append-style into one buffer written with a single
// syscall, grouped by shard — request IDs are echoed on every response,
// so the protocol permits the reordering (BinaryClient demuxes by ID).
//
// A PUT is admitted and appended to its replicas here, in frame order,
// but the loop does not wait for its group commit: the fill's replies go
// to the connection's acker, which writes them once the commits land (see
// flush). So a pipelined PUT stream shares commits, and no reply leaves
// before every earlier PUT on the connection is acked.
func (s *Server) handleBinary(conn net.Conn, r *bufio.Reader, st *stripe) {
	rd := wire.NewReader(r, wire.DefaultMaxPayload)
	c := s.newSession(st)
	defer c.stopAcker()
	for {
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		h, payload, err := rd.Next()
		if err != nil {
			// A burst can be pending here — More counts a buffered
			// malformed header as a frame — and its requests were already
			// well-formed: answer them before reporting the error. A
			// framing violation (bad magic/version, oversized length,
			// truncated frame) cannot be resynchronized: best-effort error
			// frame, then close. Clean EOF just closes.
			c.flushBurst()
			if !errors.Is(err, io.EOF) {
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				c.fail(wire.Header{}, err.Error())
			}
			if len(c.out) > 0 || len(c.puts) > 0 {
				c.flush(conn)
			}
			return
		}
		c.stamp()
		quit := c.serve(h, payload)
		// Keep draining while the read buffer holds further complete
		// frames — they arrived together and admit as one burst. The cap
		// bounds latency and scratch growth under a stream that never
		// drains. Write only when the next Next may block on the network
		// (a buffered malformed header counts as "more": Next fails on it
		// without blocking and that error path writes), so a pipelined
		// burst costs one write syscall.
		more := rd.More() && !quit
		if !more || c.collected >= maxBurstFrames {
			c.flushBurst()
		}
		if !more || len(c.out) >= connReadBuf {
			if err := c.flush(conn); err != nil {
				return
			}
		}
		if quit {
			return
		}
		if !more {
			c.arrival = -1 // next frame comes off a fresh fill
		}
	}
}

// ackDepth is how many reply batches a connection's acker holds: enough
// that the read loop keeps appending a pipelined PUT stream while earlier
// batches wait out their commits, and, once all are out, the read loop's
// backpressure.
const ackDepth = 4

// errConnDead stops the read loop once the acker's write has failed.
var errConnDead = errors.New("connection write failed")

// ackBatch is one flush's replies: the frames in out, with each pending
// PUT's reply still to be spliced in at its offset.
type ackBatch struct {
	out  []byte
	puts []*pendingPut // in order of at
}

// acker is a connection's PUT completer: one goroutine that takes the
// read loop's reply batches in order, waits out each batch's group
// commits, and writes the batch with its PUT replies in place.
type acker struct {
	queued chan *ackBatch // handed over, in fill order
	free   chan *ackBatch // written; the read loop refills them
	busy   atomic.Int32   // batches handed over and not yet written
	dead   atomic.Bool    // a write failed
	done   chan struct{}  // closed once the acker has drained
}

// nextPut returns a reusable pendingPut appended to c.puts.
func (c *session) nextPut() *pendingPut {
	n := len(c.puts)
	if n == cap(c.puts) {
		c.puts = append(c.puts, new(pendingPut))
	} else if c.puts = c.puts[:n+1]; c.puts[n] == nil {
		c.puts[n] = new(pendingPut)
	}
	return c.puts[n]
}

// flush writes the replies in c.out. While PUTs are pending, or earlier
// batches are still with the acker, the replies go to the acker instead
// (started by the connection's first PUT), so they leave in order and
// only after the commits before them landed; otherwise it writes them
// directly.
func (c *session) flush(conn net.Conn) error {
	if len(c.puts) == 0 && (c.ack == nil || c.ack.busy.Load() == 0) {
		_, err := conn.Write(c.out)
		c.out = c.out[:0]
		return err
	}
	if c.ack == nil {
		a := &acker{
			queued: make(chan *ackBatch, ackDepth),
			free:   make(chan *ackBatch, ackDepth),
			done:   make(chan struct{}),
		}
		for range ackDepth {
			a.free <- new(ackBatch)
		}
		c.ack = a
		go a.run(c.s, conn, c.hasHealth)
	}
	a := c.ack
	if a.dead.Load() {
		return errConnDead
	}
	b := <-a.free
	b.out, c.out = c.out, b.out
	b.puts, c.puts = c.puts, b.puts
	a.busy.Add(1)
	a.queued <- b
	return nil
}

// stopAcker drains the acker, if the connection started one: every batch
// handed over is completed before the connection closes.
func (c *session) stopAcker() {
	if c.ack != nil {
		close(c.ack.queued)
		<-c.ack.done
	}
}

func (a *acker) run(s *Server, conn net.Conn, hasHealth bool) {
	defer close(a.done)
	var buf []byte // a batch with its PUT replies spliced in
	for b := range a.queued {
		w := b.out
		if len(b.puts) > 0 {
			buf = buf[:0]
			prev := 0
			for _, pp := range b.puts {
				buf = append(buf, b.out[prev:pp.at]...)
				buf = s.putWait(pp, hasHealth, buf)
				prev = pp.at
			}
			buf = append(buf, b.out[prev:]...)
			w = buf
		}
		if !a.dead.Load() {
			if _, err := conn.Write(w); err != nil {
				a.dead.Store(true)
			}
		}
		b.out, b.puts = b.out[:0], b.puts[:0]
		a.busy.Add(-1)
		a.free <- b
	}
}
