// Package qosnet exposes a QoS system over TCP with a line-based text
// protocol, modelling the storage-cloud deployment the paper motivates
// (§I): tenants submit block reads to a shared flash array and receive the
// admission outcome and guaranteed response time.
//
// Protocol (one request per line, space-separated):
//
//	READ <block> [tenant]  → OK <device> <delay-ms> <response-ms> <delayed>
//	                       | REJECTED
//	WRITE <block> [tenant] → same responses; updates all replicas
//	MAP <block>         → MAP <designBlock> <dev0> <dev1> ...
//	STATS               → STATS <requests> <delayed> <rejected> <avgDelay-ms>
//	METRICS             → Prometheus-style text exposition, blank-line terminated
//	FAIL <dev>          → OK failed <effective-S>       (admin: take device out of service)
//	RECOVER <dev>       → OK <state> <effective-S>      (admin: bring device back; state is
//	                                                     "rebuilding" or "healthy")
//	HEALTH              → HEALTH devices=<n> alive=<n> s=<S'> s_full=<S>
//	                             rebuild_pending=<n> rebuild_done=<n>
//	                      followed by one "DEV <i> <state> <ewma-ms>" line per
//	                      device and a blank terminator
//	TENANT SET <name> <reserve> <limit> <weight>
//	                    → OK <index>          (admin: install/update a tenant live)
//	TENANT GET <name>   → TENANT <name> index=<i> reserve=<r> limit=<l> weight=<w>
//	                             admitted=<n> rejected=<n> overlimit=<n> deficit=<n>
//	TENANT DEL <name>   → OK deleted          (admin: deactivate; the index stays reserved)
//	QUIT                → connection closes
//
// READ/WRITE may carry a tenant name: the request is admitted under that
// tenant's QoS policy (reservation, limit, weighted surplus share) and an
// unknown name answers "ERR unknown tenant" — requests are never silently
// downgraded to the untenanted path. METRICS adds per-tenant
// flashqos_tenant_* series labelled {tenant="name"} once tenants are
// configured.
//
// The admin verbs answer "ERR no health monitor" unless the served system
// was built with a health monitor attached (core.System.NewHealthMonitor);
// qosd attaches one by default.
//
// Arrival times are virtual: milliseconds since the server started, read
// from a monotonic clock, so the simulated array timeline matches real
// request interleaving.
//
// # Concurrency model
//
// Connections are handled by one goroutine each and requests flow through a
// concurrent pipeline with no global serialization:
//
//   - Admission runs through core.System, which is safe for concurrent
//     submission: per-interval window counts are sharded atomic counters
//     reserved with a CAS loop, so submissions only touch shared memory
//     for the window they land in,
//     and the per-window count never exceeds S. Only the device scheduler
//     (picking the earliest-finishing replica and marking it busy) sits
//     behind a short mutex, because device next-free times are one global
//     resource. Statistical mode (ε > 0) is concurrent too: admissions
//     check a published Q-bound snapshot lock-free, and closed windows
//     merge into the estimator once per T-interval (core statGate).
//   - Server counters (requests/delayed/rejected/delay-sum) and the
//     virtual clock watermark are lock-free atomics; STATS and METRICS
//     read them without blocking request handlers.
//   - Each connection owns its bufio reader/writer and response scratch
//     buffer, so connections never contend on I/O state.
//
// Robustness controls (Options): a cap on concurrent connections (excess
// connections receive "ERR server busy" and are closed), a per-line read
// deadline, and a maximum request-line length (longer lines are discarded
// and answered with "ERR line too long"). Shutdown drains in-flight
// connections for a configurable timeout before force-closing them.
//
// # Sharding
//
// The server fronts a shard.Array: one or more independent QoS engines
// with the data-block space hash-partitioned across them (qosd -shards).
// The protocol is shard-transparent — READ/WRITE route to the owning
// shard, MAP/FAIL/RECOVER/HEALTH speak global device ids (shard i's local
// device d is global device i·N + d), STATS aggregates — and METRICS adds
// a flashqos_shards gauge plus per-shard series labelled {shard="i"}.
// NewServer wraps a single system as a one-shard array, so a standalone
// deployment behaves exactly as before.
//
// # Binary protocol
//
// Alongside the text protocol the server speaks a length-prefixed binary
// framing (internal/wire): a 16-byte header carrying a request ID lets one
// connection multiplex many in-flight requests with out-of-order
// completion, and every text verb has a binary opcode (OpSubmit/OpWrite/
// OpBatch/OpMap/OpStats/OpMetrics/OpFail/OpRecover/OpHealth/OpShardStats).
// The protocol is auto-detected per connection from the first byte (the
// frame magic 0xFB is not a byte any text verb starts with); Options.Proto
// restricts the server to one protocol. Both handlers share a single
// dispatch core — admission accounting, metrics rendering and admin logic
// are the same code — so text and binary connections can interleave freely
// against one server. See DESIGN.md §11 for the frame layout.
package qosnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flashqos/internal/admission"
	"flashqos/internal/core"
	"flashqos/internal/health"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

// Default robustness limits (see Options).
const (
	DefaultMaxLineBytes = 4096
)

// ErrForcedClose is returned by Shutdown when the drain timeout expired
// and remaining connections were force-closed.
var ErrForcedClose = errors.New("qosnet: drain timeout expired, connections force-closed")

// Proto selects which wire protocols a server accepts. The protocol of
// each connection is detected from its first byte: wire.Magic (0xFB)
// opens a binary connection, anything else a text one.
type Proto int

const (
	// ProtoBoth auto-detects text or binary per connection (default).
	ProtoBoth Proto = iota
	// ProtoText serves only the line protocol; a binary connection is
	// answered with "ERR binary protocol disabled" and closed.
	ProtoText
	// ProtoBinary serves only framed connections; a text connection is
	// answered with an error frame and closed.
	ProtoBinary
)

// Options configures the server's backpressure and robustness controls.
// The zero value means: unlimited connections, no read deadline,
// DefaultMaxLineBytes per request line, wire.DefaultMaxPayload per binary
// frame, and both protocols enabled.
type Options struct {
	// MaxConns caps concurrent connections; excess connections are sent
	// "ERR server busy" and closed. 0 means unlimited.
	MaxConns int
	// ReadTimeout is the per-line (text) or per-frame (binary) read
	// deadline; a connection idle longer than this is closed. 0 means no
	// deadline.
	ReadTimeout time.Duration
	// MaxLineBytes caps the text request-line length, counted over the
	// line's content excluding its terminator: a line whose content is
	// exactly MaxLineBytes bytes is served, one byte more is discarded and
	// answered with "ERR line too long". Both "\n" and "\r\n" terminators
	// are excluded from the count, and the limit applies even when the
	// line spans multiple bufio fills (bufio.ErrBufferFull). 0 means
	// DefaultMaxLineBytes.
	MaxLineBytes int
	// MaxPayloadBytes caps a binary frame's payload length. A frame
	// announcing more is a protocol violation: the stream cannot be
	// resynchronized, so the connection is closed after an error frame.
	// 0 means wire.DefaultMaxPayload.
	MaxPayloadBytes int
	// Proto restricts the accepted protocols (default ProtoBoth).
	Proto Proto
	// Store attaches a payload engine (internal/pack) behind the QoS
	// layer: the binary OpGet/OpPut verbs serve real bytes through it with
	// admission in front, and its read/write faults feed the health
	// monitors. nil disables the data path — OpGet/OpPut answer an error
	// frame and everything else is unchanged.
	Store BlockStore
}

// stripe is one slice of the server's request counters. Each connection
// owns a stripe exclusively for its lifetime (acquireStripe /
// releaseStripe), which makes every counter single-writer: increments are
// a plain load + atomic store instead of a LOCK-prefixed read-modify-write,
// and the delay sum needs no CAS loop. Readers (STATS, METRICS) sum the
// registry of all stripes ever issued; released stripes keep their counts
// and are handed to later connections, so totals stay monotone and the
// registry stays bounded by the peak connection count.
type stripe struct {
	delayed  atomic.Int64
	rejected atomic.Int64
	delaySum atomic.Uint64 // float64 bits; single-writer accumulated
	// shard counts requests per shard; the grand request total is the sum
	// over all shards, so the hot path pays one counter, not two.
	shard []atomic.Int64
	_     [2]uint64
}

// bump increments a single-writer counter. Only the owning connection
// goroutine writes it, so load + store (no LOCK RMW) is race-free while
// the atomic store keeps reader snapshots tear-free.
func bump(c *atomic.Int64) { c.Store(c.Load() + 1) }

// addDelay accumulates a delay into the stripe's float64 sum. Single
// writer, so read-add-store suffices.
func (st *stripe) addDelay(d float64) {
	v := math.Float64frombits(st.delaySum.Load()) + d
	st.delaySum.Store(math.Float64bits(v))
}

// Server serves a shard.Array — one or more QoS engines with the block
// space partitioned across them — over TCP. Create with NewServer (single
// array), NewServerOpts, or NewServerSharded, then Serve.
type Server struct {
	arr   *shard.Array
	start time.Time
	opts  Options

	lastT atomic.Uint64 // float64 bits: virtual-clock watermark
	busy  atomic.Int64  // connections rejected by the MaxConns cap

	stripeMu    sync.Mutex
	stripes     []*stripe // registry of every stripe ever issued
	freeStripes []*stripe // stripes of closed connections, ready for reuse

	lis      net.Listener
	closed   chan struct{}
	connWG   sync.WaitGroup
	closeOne sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	sem    chan struct{} // MaxConns semaphore (nil = unlimited)
}

// NewServer wraps a QoS system with default Options.
func NewServer(sys *core.System) *Server {
	return NewServerOpts(sys, Options{})
}

// NewServerOpts wraps a QoS system with explicit robustness options. The
// system is served as a one-shard array.
func NewServerOpts(sys *core.System, opts Options) *Server {
	arr, err := shard.FromSystems(sys)
	if err != nil {
		panic("qosnet: " + err.Error()) // unreachable: one valid system
	}
	return NewServerSharded(arr, opts)
}

// NewServerSharded serves a pre-built sharded array.
func NewServerSharded(arr *shard.Array, opts Options) *Server {
	if opts.MaxLineBytes <= 0 {
		opts.MaxLineBytes = DefaultMaxLineBytes
	}
	s := &Server{
		arr:    arr,
		start:  time.Now(),
		opts:   opts,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	if opts.MaxConns > 0 {
		s.sem = make(chan struct{}, opts.MaxConns)
	}
	return s
}

// System returns shard 0's engine (for inspection and tests; the whole
// served system when unsharded).
func (s *Server) System() *core.System { return s.arr.System(0) }

// Array returns the served sharded array.
func (s *Server) Array() *shard.Array { return s.arr }

// anyHealth reports whether at least one shard has a health monitor.
func (s *Server) anyHealth() bool {
	for i := 0; i < s.arr.Shards(); i++ {
		if s.arr.Monitor(i) != nil {
			return true
		}
	}
	return false
}

// monitorFor resolves a global device id to its shard's monitor and local
// device id (mon is nil when the shard has none or the id is out of range).
func (s *Server) monitorFor(globalDev int) (mon *health.Monitor, local int) {
	sh, local, ok := s.arr.DeviceShard(globalDev)
	if !ok {
		return nil, 0
	}
	return s.arr.Monitor(sh), local
}

// Listen starts listening on addr (e.g. "127.0.0.1:0") and returns the
// bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lis = lis
	return lis.Addr(), nil
}

// healthPumpInterval is how often Serve ticks the health monitor's
// background work (token-bucket rebuild copies, drained-device promotion).
const healthPumpInterval = 2 * time.Millisecond

// Serve accepts connections until Close/Shutdown. Call after Listen.
// When the served shards have health monitors attached, Serve also pumps
// their rebuild schedulers until shutdown.
func (s *Server) Serve() error {
	if s.lis == nil {
		return errors.New("qosnet: Serve before Listen")
	}
	if s.anyHealth() {
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			tick := time.NewTicker(healthPumpInterval)
			defer tick.Stop()
			for {
				select {
				case <-s.closed:
					return
				case <-tick.C:
					for i := 0; i < s.arr.Shards(); i++ {
						if mon := s.arr.Monitor(i); mon != nil {
							mon.Step()
						}
					}
				}
			}
		}()
	}
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.closed:
				s.connWG.Wait()
				return nil
			default:
				return err
			}
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				// Over the connection cap: refuse quickly instead of
				// queueing unbounded work.
				s.busy.Add(1)
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				io.WriteString(conn, "ERR server busy\n")
				conn.Close()
				continue
			}
		}
		s.track(conn, true)
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer s.track(conn, false)
			if s.sem != nil {
				defer func() { <-s.sem }()
			}
			s.handle(conn)
		}()
	}
}

func (s *Server) track(conn net.Conn, add bool) {
	s.connMu.Lock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
	s.connMu.Unlock()
}

// Close stops the listener. In-flight connections keep being served; use
// Shutdown to wait for them (with an optional drain timeout).
func (s *Server) Close() {
	s.closeOne.Do(func() {
		close(s.closed)
		if s.lis != nil {
			s.lis.Close()
		}
	})
}

// Shutdown stops the listener and waits for in-flight connections to
// finish. If drain > 0 and connections are still open when it expires,
// they are force-closed and ErrForcedClose is returned. drain <= 0 waits
// indefinitely.
func (s *Server) Shutdown(drain time.Duration) error {
	s.Close()
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	if drain <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(drain):
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		<-done
		return ErrForcedClose
	}
}

// now returns the virtual arrival time in ms, forced non-decreasing across
// all connections with a CAS loop on the watermark — safe to call from any
// goroutine.
func (s *Server) now() float64 {
	t := float64(time.Since(s.start)) / float64(time.Millisecond)
	for {
		old := s.lastT.Load()
		if last := math.Float64frombits(old); t <= last {
			return last
		}
		if s.lastT.CompareAndSwap(old, math.Float64bits(t)) {
			return t
		}
	}
}

// totals sums the striped request counters — the STATS/METRICS read side.
// The request total is derived from the per-shard counters.
func (s *Server) totals() (requests, delayed, rejected int64, delaySumMS float64) {
	s.stripeMu.Lock()
	defer s.stripeMu.Unlock()
	for _, st := range s.stripes {
		for j := range st.shard {
			requests += st.shard[j].Load()
		}
		delayed += st.delayed.Load()
		rejected += st.rejected.Load()
		delaySumMS += math.Float64frombits(st.delaySum.Load())
	}
	return
}

// shardRequests sums one shard's striped request counter.
func (s *Server) shardRequests(shard int) int64 {
	s.stripeMu.Lock()
	defer s.stripeMu.Unlock()
	var n int64
	for _, st := range s.stripes {
		n += st.shard[shard].Load()
	}
	return n
}

// acquireStripe hands a counter stripe to a new connection — a reused one
// from a closed connection when available (its counts carry over into the
// server totals), otherwise a fresh one added to the registry.
func (s *Server) acquireStripe() *stripe {
	s.stripeMu.Lock()
	defer s.stripeMu.Unlock()
	if n := len(s.freeStripes); n > 0 {
		st := s.freeStripes[n-1]
		s.freeStripes = s.freeStripes[:n-1]
		return st
	}
	st := &stripe{shard: make([]atomic.Int64, s.arr.Shards())}
	s.stripes = append(s.stripes, st)
	return st
}

// releaseStripe returns a connection's stripe for reuse. The counts are
// kept — they are part of the server's running totals.
func (s *Server) releaseStripe(st *stripe) {
	s.stripeMu.Lock()
	s.freeStripes = append(s.freeStripes, st)
	s.stripeMu.Unlock()
}

// readLine reads one newline-terminated line of at most max bytes. An
// over-long line is discarded through the next newline and reported via
// tooLong. A final unterminated line before EOF is returned as a line; the
// next call then reports io.EOF.
func readLine(r *bufio.Reader, max int) (line []byte, tooLong bool, err error) {
	var buf []byte
	for {
		frag, err := r.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			if err == io.EOF && len(buf) > 0 && !tooLongLen(buf, max) {
				return buf, false, nil
			}
			return nil, tooLongLen(buf, max), err
		}
		if tooLongLen(buf, max) {
			// Discard the remainder of the oversized line.
			for {
				_, err := r.ReadSlice('\n')
				if err == nil || err != bufio.ErrBufferFull {
					return nil, true, err
				}
			}
		}
	}
	if tooLongLen(buf, max) {
		return nil, true, nil
	}
	return buf, false, nil
}

func tooLongLen(buf []byte, max int) bool {
	n := len(buf)
	if n > 0 && buf[n-1] == '\n' {
		n--
		if n > 0 && buf[n-1] == '\r' {
			n--
		}
	}
	return n > max
}

// connReadBuf is the per-connection read-buffer size. Large enough that a
// binary frame's header+payload usually sits in one fill (the zero-copy
// path) and a pipelined burst of text lines batches into few reads.
const connReadBuf = 32768

// handle serves one connection: it sniffs the protocol from the first
// byte (without consuming it) and hands off to the text or binary loop.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	st := s.acquireStripe()
	defer s.releaseStripe(st)
	r := bufio.NewReaderSize(conn, connReadBuf)
	if s.opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	}
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	if first[0] == wire.Magic {
		if s.opts.Proto == ProtoText {
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			io.WriteString(conn, "ERR binary protocol disabled\n")
			return
		}
		s.handleBinary(conn, r, st)
		return
	}
	if s.opts.Proto == ProtoBinary {
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		wr := wire.NewWriter(bufio.NewWriter(conn))
		wr.WriteError(wire.Header{}, "text protocol disabled")
		wr.Flush()
		return
	}
	s.handleText(conn, r, st)
}

// account books one outcome into the connection's stripe — the one place
// the rejected/delayed/delay-sum counters move — and, with feedHealth set,
// feeds the serving device's latency detector: the simulated array served
// the request in Response() ms on that device. The data path passes
// feedHealth = false: there the success sample belongs to the device that
// actually served bytes, known only after the real I/O lands.
func (s *Server) account(st *stripe, out *core.Outcome, feedHealth bool) {
	if out.Rejected {
		bump(&st.rejected)
		return
	}
	if out.Delayed {
		bump(&st.delayed)
		st.addDelay(out.Delay)
	}
	if feedHealth {
		if m, local := s.monitorFor(out.Device); m != nil {
			m.ReportSuccess(local, out.Response())
		}
	}
}

// submitAt runs one READ/WRITE through the shared dispatch core: shard
// routing, striped accounting, and the health monitor's latency feed. The
// caller supplies the virtual arrival time — the text handler reads the
// clock per line, the binary handler stamps one arrival per socket fill
// (frames drained from a single read genuinely arrived together), which
// keeps the clock off the per-frame path. tenant is the 1-based tenant
// index (0 = untenanted).
func (s *Server) submitAt(st *stripe, write bool, block int64, tenant int32, feedHealth bool, arrival float64) core.Outcome {
	var out core.Outcome
	switch {
	case tenant != 0 && write:
		out = s.arr.SubmitWriteTenant(arrival, block, tenant)
	case tenant != 0:
		out = s.arr.SubmitTenant(arrival, block, tenant)
	case write:
		out = s.arr.SubmitWrite(arrival, block)
	default:
		out = s.arr.Submit(arrival, block)
	}
	bump(&st.shard[s.arr.ShardOf(block)])
	s.account(st, &out, feedHealth)
	return out
}

// submitBatch admits simultaneous requests jointly (shard.Array.SubmitBatch
// semantics) with the same accounting as submitAt. The scratch belongs to
// the calling connection; nil allocates.
func (s *Server) submitBatch(st *stripe, blocks []int64, sc *shard.BatchScratch, feedHealth bool, arrival float64) []core.Outcome {
	outs := s.arr.SubmitBatch(arrival, blocks, sc)
	for i := range outs {
		bump(&st.shard[s.arr.ShardOf(blocks[i])])
		s.account(st, &outs[i], feedHealth)
	}
	return outs
}

// submitBurstShard admits one shard's slice of a drained burst of
// pipelined READ/WRITE frames sharing one arrival stamp (core.BurstReq
// semantics: outcomes bit-identical to per-frame submitAt calls in input
// order — per-shard admission state is independent, so shard-bucketed
// submission preserves each shard's arrival order). The shard's request
// counter is bumped once per (shard, burst) — the binary handler already
// routed every block while decoding it. The scratch belongs to the calling
// connection.
func (s *Server) submitBurstShard(st *stripe, sh int, reqs []core.BurstReq, sc *core.BurstScratch, feedHealth bool, arrival float64) []core.Outcome {
	outs := s.arr.SubmitBurstShard(sh, arrival, reqs, sc)
	c := &st.shard[sh]
	c.Store(c.Load() + int64(len(reqs))) // single-writer, like bump
	for i := range outs {
		s.account(st, &outs[i], feedHealth)
	}
	return outs
}

// adminFailRecover applies a FAIL/RECOVER admin verb to a valid global
// device id and reports the device's new state plus the aggregate S'.
// Callers validate the id range and health availability first.
func (s *Server) adminFailRecover(fail bool, dev int) (state string, effectiveS int, err error) {
	mon, local := s.monitorFor(dev)
	if mon == nil {
		return "", 0, fmt.Errorf("no health monitor for device %d", dev)
	}
	if fail {
		err = mon.Fail(local)
	} else {
		err = mon.Recover(local)
	}
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprint(mon.State(local)), s.arr.EffectiveS(), nil
}

// healthTotals aggregates per-shard health counters (shards without a
// monitor count as fully alive).
func (s *Server) healthTotals() (alive, pending int, done int64) {
	for i := 0; i < s.arr.Shards(); i++ {
		mon := s.arr.Monitor(i)
		if mon == nil {
			alive += s.arr.DevicesPerShard()
			continue
		}
		alive += mon.Mask().Alive
		p, d := mon.RebuildProgress()
		pending += p
		done += d
	}
	return
}

// shardGauges snapshots the per-shard admission gauges (the binary form of
// the METRICS shard series).
func (s *Server) shardGauges(gs []wire.ShardGauge) []wire.ShardGauge {
	gs = gs[:0]
	for i := 0; i < s.arr.Shards(); i++ {
		sys := s.arr.System(i)
		alive := s.arr.DevicesPerShard()
		if mon := s.arr.Monitor(i); mon != nil {
			alive = mon.Mask().Alive
		}
		gs = append(gs, wire.ShardGauge{
			S:          int32(sys.S()),
			EffectiveS: int32(sys.EffectiveS()),
			Alive:      int32(alive),
			Requests:   s.shardRequests(i),
			Q:          sys.Q(),
		})
	}
	return gs
}

// appendMetrics renders the Prometheus-style exposition page into buf with
// strconv appends — one buffer build, one write, no fmt on the scrape
// path. The page excludes the blank-line terminator (the text handler
// appends it; the binary handler frames the page as-is).
func (s *Server) appendMetrics(buf []byte, hasHealth bool) []byte {
	requests, delayed, rejected, delaySum := s.totals()
	appendGaugeInt := func(buf []byte, name string, kind string, v int64) []byte {
		buf = append(buf, "# TYPE "...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = append(buf, kind...)
		buf = append(buf, '\n')
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, v, 10)
		return append(buf, '\n')
	}
	buf = appendGaugeInt(buf, "flashqos_requests_total", "counter", requests)
	buf = appendGaugeInt(buf, "flashqos_delayed_total", "counter", delayed)
	buf = appendGaugeInt(buf, "flashqos_rejected_total", "counter", rejected)
	buf = append(buf, "# TYPE flashqos_delay_ms_sum counter\nflashqos_delay_ms_sum "...)
	buf = strconv.AppendFloat(buf, delaySum, 'f', 6, 64)
	buf = append(buf, '\n')
	buf = appendGaugeInt(buf, "flashqos_busy_rejected_total", "counter", s.busy.Load())
	buf = appendGaugeInt(buf, "flashqos_admission_limit", "gauge", int64(s.arr.S()))
	buf = appendGaugeInt(buf, "flashqos_admission_limit_effective", "gauge", int64(s.arr.EffectiveS()))
	buf = append(buf, "# TYPE flashqos_q_estimate gauge\nflashqos_q_estimate "...)
	buf = strconv.AppendFloat(buf, s.arr.Q(), 'f', 6, 64)
	buf = append(buf, '\n')
	buf = append(buf, "# TYPE flashqos_shard_q_estimate gauge\n"...)
	for i := 0; i < s.arr.Shards(); i++ {
		buf = append(buf, `flashqos_shard_q_estimate{shard="`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `"} `...)
		buf = strconv.AppendFloat(buf, s.arr.System(i).Q(), 'f', 6, 64)
		buf = append(buf, '\n')
	}
	buf = appendGaugeInt(buf, "flashqos_shards", "gauge", int64(s.arr.Shards()))
	buf = append(buf, "# TYPE flashqos_shard_requests_total counter\n"...)
	for i := 0; i < s.arr.Shards(); i++ {
		buf = append(buf, `flashqos_shard_requests_total{shard="`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `"} `...)
		buf = strconv.AppendInt(buf, s.shardRequests(i), 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, "# TYPE flashqos_shard_admission_limit_effective gauge\n"...)
	for i := 0; i < s.arr.Shards(); i++ {
		buf = append(buf, `flashqos_shard_admission_limit_effective{shard="`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `"} `...)
		buf = strconv.AppendInt(buf, int64(s.arr.System(i).EffectiveS()), 10)
		buf = append(buf, '\n')
	}
	if tenants := s.arr.TenantStats(); len(tenants) > 0 {
		appendTenantSeries := func(buf []byte, name string, value func(tc shard.TenantCounters) int64) []byte {
			buf = append(buf, "# TYPE "...)
			buf = append(buf, name...)
			buf = append(buf, " counter\n"...)
			for _, tc := range tenants {
				buf = append(buf, name...)
				buf = append(buf, `{tenant="`...)
				buf = append(buf, tc.Spec.Name...)
				buf = append(buf, `"} `...)
				buf = strconv.AppendInt(buf, value(tc), 10)
				buf = append(buf, '\n')
			}
			return buf
		}
		buf = appendTenantSeries(buf, "flashqos_tenant_admitted_total",
			func(tc shard.TenantCounters) int64 { return tc.Admitted })
		buf = appendTenantSeries(buf, "flashqos_tenant_rejected_total",
			func(tc shard.TenantCounters) int64 { return tc.Rejected })
		buf = appendTenantSeries(buf, "flashqos_tenant_over_limit_total",
			func(tc shard.TenantCounters) int64 { return tc.OverLimit })
		buf = appendTenantSeries(buf, "flashqos_tenant_reservation_deficit_total",
			func(tc shard.TenantCounters) int64 { return tc.Deficit })
	}
	if hasHealth {
		alive, pending, done := s.healthTotals()
		unavail, transitions := 0, int64(0)
		for i := 0; i < s.arr.Shards(); i++ {
			if mon := s.arr.Monitor(i); mon != nil {
				unavail += mon.Mask().Unavailable()
				transitions += mon.Transitions()
			}
		}
		buf = appendGaugeInt(buf, "flashqos_devices_alive", "gauge", int64(alive))
		buf = appendGaugeInt(buf, "flashqos_devices_unavailable", "gauge", int64(unavail))
		buf = appendGaugeInt(buf, "flashqos_rebuild_pending", "gauge", int64(pending))
		buf = appendGaugeInt(buf, "flashqos_rebuild_done_total", "counter", done)
		buf = appendGaugeInt(buf, "flashqos_health_transitions_total", "counter", transitions)
		buf = append(buf, "# TYPE flashqos_shard_devices_alive gauge\n"...)
		for i := 0; i < s.arr.Shards(); i++ {
			a := s.arr.DevicesPerShard()
			if mon := s.arr.Monitor(i); mon != nil {
				a = mon.Mask().Alive
			}
			buf = append(buf, `flashqos_shard_devices_alive{shard="`...)
			buf = strconv.AppendInt(buf, int64(i), 10)
			buf = append(buf, `"} `...)
			buf = strconv.AppendInt(buf, int64(a), 10)
			buf = append(buf, '\n')
		}
	}
	return buf
}

func (s *Server) handleText(conn net.Conn, r *bufio.Reader, st *stripe) {
	w := bufio.NewWriterSize(conn, connReadBuf)
	scratch := make([]byte, 0, 128) // per-connection response buffer
	hasHealth := s.anyHealth()      // monitors attach before serving
	for {
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		raw, tooLong, err := readLine(r, s.opts.MaxLineBytes)
		if tooLong {
			fmt.Fprintln(w, "ERR line too long")
			if w.Flush() != nil || err != nil {
				return
			}
			continue
		}
		if err != nil {
			return
		}
		line := strings.TrimSpace(string(raw))
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch strings.ToUpper(fields[0]) {
		case "READ", "WRITE":
			if len(fields) != 2 && len(fields) != 3 {
				fmt.Fprintf(w, "ERR usage: %s <block> [tenant]\n", strings.ToUpper(fields[0]))
				break
			}
			block, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				fmt.Fprintf(w, "ERR bad block: %v\n", err)
				break
			}
			var tenant int32
			if len(fields) == 3 {
				// Text clients tag by name; resolution is a cold-path
				// registry lookup. An unknown name is the same uniform
				// refusal the binary protocol gives an unknown index.
				if tenant = s.arr.TenantIndex(fields[2]); tenant == 0 {
					fmt.Fprintf(w, "ERR %s\n", errUnknownTenant)
					break
				}
			}
			out := s.submitAt(st, strings.ToUpper(fields[0]) == "WRITE", block, tenant, hasHealth, s.now())
			if out.Rejected {
				fmt.Fprintln(w, "REJECTED")
			} else {
				scratch = appendOutcome(scratch[:0], out)
				w.Write(scratch)
			}
		case "MAP":
			if len(fields) != 2 {
				fmt.Fprintln(w, "ERR usage: MAP <block>")
				break
			}
			block, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				fmt.Fprintf(w, "ERR bad block: %v\n", err)
				break
			}
			i := s.arr.ShardOf(block)
			sys := s.arr.System(i)
			db := sys.Mapper().DesignBlock(block)
			reps := sys.Replicas(block)
			base := i * s.arr.DevicesPerShard()
			scratch = append(scratch[:0], "MAP "...)
			scratch = strconv.AppendInt(scratch, int64(db), 10)
			for _, d := range reps {
				scratch = append(scratch, ' ')
				scratch = strconv.AppendInt(scratch, int64(base+d), 10)
			}
			scratch = append(scratch, '\n')
			w.Write(scratch)
		case "STATS":
			req, del, rej, sum := s.totals()
			avg := 0.0
			if del > 0 {
				avg = sum / float64(del)
			}
			fmt.Fprintf(w, "STATS %d %d %d %.6f\n", req, del, rej, avg)
		case "METRICS":
			// One scratch build, one write: the scrape path stays off fmt
			// and allocates nothing once the scratch has grown to the page
			// size.
			scratch = s.appendMetrics(scratch[:0], hasHealth)
			scratch = append(scratch, '\n') // blank-line terminator
			w.Write(scratch)
		case "FAIL", "RECOVER":
			verb := strings.ToUpper(fields[0])
			if len(fields) != 2 {
				fmt.Fprintf(w, "ERR usage: %s <device>\n", verb)
				break
			}
			if !hasHealth {
				fmt.Fprintln(w, "ERR no health monitor")
				break
			}
			dev, err := strconv.Atoi(fields[1])
			if err != nil || dev < 0 || dev >= s.arr.Devices() {
				fmt.Fprintf(w, "ERR bad device %q\n", fields[1])
				break
			}
			state, effS, aerr := s.adminFailRecover(verb == "FAIL", dev)
			if aerr != nil {
				fmt.Fprintf(w, "ERR %v\n", aerr)
				break
			}
			fmt.Fprintf(w, "OK %s %d\n", state, effS)
		case "HEALTH":
			if !hasHealth {
				fmt.Fprintln(w, "ERR no health monitor")
				break
			}
			alive, pending, done := s.healthTotals()
			fmt.Fprintf(w, "HEALTH devices=%d alive=%d s=%d s_full=%d rebuild_pending=%d rebuild_done=%d\n",
				s.arr.Devices(), alive, s.arr.EffectiveS(), s.arr.S(), pending, done)
			for g := 0; g < s.arr.Devices(); g++ {
				mon, local := s.monitorFor(g)
				if mon == nil {
					fmt.Fprintf(w, "DEV %d unmonitored 0.000000\n", g)
					continue
				}
				fmt.Fprintf(w, "DEV %d %s %.6f\n", g, mon.State(local), mon.EWMA(local))
			}
			fmt.Fprintln(w)
		case "TENANT":
			s.handleTenantText(w, fields)
		case "QUIT":
			w.Flush()
			return
		default:
			fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
		}
		// Batch responses to pipelined clients: only pay the write
		// syscall when the read buffer holds no further complete request,
		// so a deep pipeline costs one flush per burst instead of one per
		// request.
		if !moreRequestsBuffered(r) {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// handleTenantText serves the TENANT admin verb: SET installs or updates
// one tenant with no engine pause (the gate swaps an atomic snapshot), GET
// reports the spec plus cross-shard aggregated gauges, DEL deactivates the
// slot. Reconfiguration is a cold path; fmt is fine here.
func (s *Server) handleTenantText(w io.Writer, fields []string) {
	if len(fields) < 3 {
		fmt.Fprintln(w, "ERR usage: TENANT SET <name> <reserve> <limit> <weight> | GET <name> | DEL <name>")
		return
	}
	name := fields[2]
	switch strings.ToUpper(fields[1]) {
	case "SET":
		if len(fields) != 6 {
			fmt.Fprintln(w, "ERR usage: TENANT SET <name> <reserve> <limit> <weight>")
			return
		}
		reserve, err1 := strconv.Atoi(fields[3])
		limit, err2 := strconv.Atoi(fields[4])
		weight, err3 := strconv.ParseFloat(fields[5], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			fmt.Fprintln(w, "ERR bad TENANT SET arguments")
			return
		}
		idx, err := s.arr.TenantSet(admission.TenantSpec{
			Name: name, Reserve: reserve, Limit: limit, Weight: weight,
		})
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintf(w, "OK %d\n", idx)
	case "GET":
		if len(fields) != 3 {
			fmt.Fprintln(w, "ERR usage: TENANT GET <name>")
			return
		}
		tc, ok := s.arr.TenantGet(name)
		if !ok {
			fmt.Fprintf(w, "ERR %s\n", errUnknownTenant)
			return
		}
		fmt.Fprintf(w, "TENANT %s index=%d reserve=%d limit=%d weight=%g admitted=%d rejected=%d overlimit=%d deficit=%d\n",
			tc.Spec.Name, tc.Index, tc.Spec.Reserve, tc.Spec.Limit, tc.Spec.Weight,
			tc.Admitted, tc.Rejected, tc.OverLimit, tc.Deficit)
	case "DEL":
		if len(fields) != 3 {
			fmt.Fprintln(w, "ERR usage: TENANT DEL <name>")
			return
		}
		if err := s.arr.TenantDel(name); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, "OK deleted")
	default:
		fmt.Fprintf(w, "ERR unknown TENANT subcommand %q\n", fields[1])
	}
}

// moreRequestsBuffered reports whether the reader already holds another
// complete (newline-terminated) request. A buffered partial line does not
// count: the next readLine could block on the network, and responses must
// be flushed before that.
func moreRequestsBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n == 0 {
		return false
	}
	b, err := r.Peek(n)
	if err != nil {
		return false
	}
	return bytes.IndexByte(b, '\n') >= 0
}

// appendOutcome formats the OK response without fmt (the hot path).
func appendOutcome(buf []byte, out core.Outcome) []byte {
	buf = append(buf, "OK "...)
	buf = strconv.AppendInt(buf, int64(out.Device), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, out.Delay, 'f', 6, 64)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, out.Response(), 'f', 6, 64)
	buf = append(buf, ' ')
	buf = strconv.AppendBool(buf, out.Delayed)
	return append(buf, '\n')
}

// Client is a minimal client for the protocol.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a qosnet server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	fmt.Fprintln(c.conn, "QUIT")
	return c.conn.Close()
}

// ReadResult is the outcome of a READ request.
type ReadResult struct {
	Device   int
	DelayMS  float64
	RespMS   float64
	Delayed  bool
	Rejected bool
	// OverLimit marks a rejection by the tenant gate's per-window arrival
	// limit (carried by the binary protocol's status bits; the text
	// REJECTED line does not distinguish it).
	OverLimit bool
}

func (c *Client) roundTrip(req string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, req); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "ERR") {
		return "", errors.New(line)
	}
	return line, nil
}

// Read submits a block read.
func (c *Client) Read(block int64) (ReadResult, error) {
	return c.submitVerb(fmt.Sprintf("READ %d", block))
}

// ReadTenant submits a block read under a named tenant's QoS policy. An
// unknown tenant name is an error, not a silent untenanted read.
func (c *Client) ReadTenant(block int64, tenant string) (ReadResult, error) {
	return c.submitVerb(fmt.Sprintf("READ %d %s", block, tenant))
}

// WriteTenant submits a block write under a named tenant's QoS policy.
func (c *Client) WriteTenant(block int64, tenant string) (ReadResult, error) {
	return c.submitVerb(fmt.Sprintf("WRITE %d %s", block, tenant))
}

func (c *Client) submitVerb(req string) (ReadResult, error) {
	line, err := c.roundTrip(req)
	if err != nil {
		return ReadResult{}, err
	}
	if line == "REJECTED" {
		return ReadResult{Rejected: true}, nil
	}
	var r ReadResult
	var delayed string
	if _, err := fmt.Sscanf(line, "OK %d %f %f %s", &r.Device, &r.DelayMS, &r.RespMS, &delayed); err != nil {
		return ReadResult{}, fmt.Errorf("qosnet: bad response %q: %w", line, err)
	}
	r.Delayed = delayed == "true"
	return r, nil
}

// TenantInfo is a parsed TENANT GET response: one tenant's policy plus
// its admission gauges aggregated across every shard.
type TenantInfo struct {
	Name      string
	Index     int
	Reserve   int
	Limit     int
	Weight    float64
	Admitted  int64
	Rejected  int64
	OverLimit int64
	Deficit   int64
}

// TenantSet installs or updates one tenant's QoS policy live (admin) and
// returns its stable 1-based index.
func (c *Client) TenantSet(name string, reserve, limit int, weight float64) (int, error) {
	line, err := c.roundTrip(fmt.Sprintf("TENANT SET %s %d %d %g", name, reserve, limit, weight))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "OK" {
		return 0, fmt.Errorf("qosnet: bad TENANT SET response %q", line)
	}
	idx, err := strconv.Atoi(fields[1])
	if err != nil || idx < 1 {
		return 0, fmt.Errorf("qosnet: bad TENANT SET response %q", line)
	}
	return idx, nil
}

// TenantGet fetches one tenant's policy and aggregated gauges (admin).
func (c *Client) TenantGet(name string) (TenantInfo, error) {
	line, err := c.roundTrip(fmt.Sprintf("TENANT GET %s", name))
	if err != nil {
		return TenantInfo{}, err
	}
	fields := strings.Fields(line)
	if len(fields) != 10 || fields[0] != "TENANT" {
		return TenantInfo{}, fmt.Errorf("qosnet: bad TENANT GET response %q", line)
	}
	ti := TenantInfo{Name: fields[1]}
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return TenantInfo{}, fmt.Errorf("qosnet: bad TENANT GET field %q", f)
		}
		var perr error
		switch k {
		case "weight":
			ti.Weight, perr = strconv.ParseFloat(v, 64)
		case "index", "reserve", "limit":
			var n int
			if n, perr = strconv.Atoi(v); perr == nil {
				switch k {
				case "index":
					ti.Index = n
				case "reserve":
					ti.Reserve = n
				case "limit":
					ti.Limit = n
				}
			}
		default:
			var n int64
			if n, perr = strconv.ParseInt(v, 10, 64); perr == nil {
				switch k {
				case "admitted":
					ti.Admitted = n
				case "rejected":
					ti.Rejected = n
				case "overlimit":
					ti.OverLimit = n
				case "deficit":
					ti.Deficit = n
				default:
					perr = fmt.Errorf("unknown field")
				}
			}
		}
		if perr != nil {
			return TenantInfo{}, fmt.Errorf("qosnet: bad TENANT GET field %q", f)
		}
	}
	return ti, nil
}

// TenantDel deactivates a tenant (admin); its index stays reserved.
func (c *Client) TenantDel(name string) error {
	line, err := c.roundTrip(fmt.Sprintf("TENANT DEL %s", name))
	if err != nil {
		return err
	}
	if line != "OK deleted" {
		return fmt.Errorf("qosnet: bad TENANT DEL response %q", line)
	}
	return nil
}

// Map asks where a data block lives.
func (c *Client) Map(block int64) (designBlock int, devices []int, err error) {
	line, err := c.roundTrip(fmt.Sprintf("MAP %d", block))
	if err != nil {
		return 0, nil, err
	}
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "MAP" {
		return 0, nil, fmt.Errorf("qosnet: bad MAP response %q", line)
	}
	db, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, nil, err
	}
	for _, f := range fields[2:] {
		d, err := strconv.Atoi(f)
		if err != nil {
			return 0, nil, err
		}
		devices = append(devices, d)
	}
	return db, devices, nil
}

// Metrics fetches the Prometheus-style exposition text.
func (c *Client) Metrics() (string, error) {
	if _, err := fmt.Fprintln(c.conn, "METRICS"); err != nil {
		return "", err
	}
	var b strings.Builder
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return "", err
		}
		if strings.TrimSpace(line) == "" {
			return b.String(), nil
		}
		b.WriteString(line)
	}
}

// ShardQ fetches the per-shard statistical violation-probability estimates
// (the flashqos_shard_q_estimate gauge). The slice is indexed by shard;
// every value is 0 on a deterministic (ε = 0) server. Each shard's gauge
// reads the same published Q snapshot its admissions decide against, so
// this is a lock-free observation of live controllers, not a stale cache.
func (c *Client) ShardQ() ([]float64, error) {
	metrics, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	return parseShardQ(metrics)
}

// parseShardQ extracts flashqos_shard_q_estimate{shard="i"} series from
// exposition text. Parsed strictly: every series must carry a well-formed
// shard label and a probability value, shard indices must tile 0..n-1
// exactly once, and a metrics page with no such series is an error (old
// server), so callers cannot mistake "not exported" for "Q is zero".
func parseShardQ(metrics string) ([]float64, error) {
	const prefix = `flashqos_shard_q_estimate{shard="`
	byShard := map[int]float64{}
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		quote := strings.Index(rest, `"`)
		if quote < 0 || !strings.HasPrefix(rest[quote:], `"} `) {
			return nil, fmt.Errorf("qosnet: bad shard Q series %q", line)
		}
		shard, err := strconv.Atoi(rest[:quote])
		if err != nil || shard < 0 {
			return nil, fmt.Errorf("qosnet: bad shard index in %q", line)
		}
		val := rest[quote+len(`"} `):]
		q, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || !(q >= 0 && q <= 1) || len(strings.Fields(val)) != 1 { // !(…) also rejects NaN
			return nil, fmt.Errorf("qosnet: bad shard Q value in %q", line)
		}
		if _, dup := byShard[shard]; dup {
			return nil, fmt.Errorf("qosnet: duplicate shard Q series for shard %d", shard)
		}
		byShard[shard] = q
	}
	if len(byShard) == 0 {
		return nil, fmt.Errorf("qosnet: no flashqos_shard_q_estimate series in metrics")
	}
	qs := make([]float64, len(byShard))
	for shard, q := range byShard {
		if shard >= len(qs) {
			return nil, fmt.Errorf("qosnet: shard Q indices not contiguous (saw shard %d among %d series)", shard, len(byShard))
		}
		qs[shard] = q
	}
	return qs, nil
}

// Stats fetches server counters. The response is parsed strictly: exactly
// four fields after the STATS tag, nothing trailing (fmt.Sscanf would
// silently accept garbage after the last number).
func (c *Client) Stats() (requests, delayed, rejected int64, avgDelayMS float64, err error) {
	line, err := c.roundTrip("STATS")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	bad := func() (int64, int64, int64, float64, error) {
		return 0, 0, 0, 0, fmt.Errorf("qosnet: bad STATS response %q", line)
	}
	fields := strings.Fields(line)
	if len(fields) != 5 || fields[0] != "STATS" {
		return bad()
	}
	ints := [3]int64{}
	for i := range ints {
		v, err := strconv.ParseInt(fields[i+1], 10, 64)
		if err != nil {
			return bad()
		}
		ints[i] = v
	}
	avg, err := strconv.ParseFloat(fields[4], 64)
	if err != nil {
		return bad()
	}
	return ints[0], ints[1], ints[2], avg, nil
}

// Fail takes a device out of service (admin). Returns the device's new
// state ("failed") and the server's effective admission limit S'.
func (c *Client) Fail(device int) (state string, effectiveS int, err error) {
	return c.adminVerb(fmt.Sprintf("FAIL %d", device))
}

// Recover brings a failed device back (admin). The returned state is
// "rebuilding" when a resilver is scheduled, "healthy" otherwise.
func (c *Client) Recover(device int) (state string, effectiveS int, err error) {
	return c.adminVerb(fmt.Sprintf("RECOVER %d", device))
}

func (c *Client) adminVerb(req string) (state string, effectiveS int, err error) {
	line, err := c.roundTrip(req)
	if err != nil {
		return "", 0, err
	}
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "OK" {
		return "", 0, fmt.Errorf("qosnet: bad response %q", line)
	}
	s, err := strconv.Atoi(fields[2])
	if err != nil {
		return "", 0, fmt.Errorf("qosnet: bad response %q", line)
	}
	return fields[1], s, nil
}

// DeviceHealth is one device's line of a HEALTH report.
type DeviceHealth struct {
	Device int
	State  string
	EWMAMS float64
}

// HealthStatus is a parsed HEALTH report.
type HealthStatus struct {
	Devices        int
	Alive          int
	EffectiveS     int
	FullS          int
	RebuildPending int
	RebuildDone    int64
	States         []DeviceHealth
}

// Health fetches the device-health report.
func (c *Client) Health() (HealthStatus, error) {
	line, err := c.roundTrip("HEALTH")
	if err != nil {
		return HealthStatus{}, err
	}
	var h HealthStatus
	fields := strings.Fields(line)
	if len(fields) != 7 || fields[0] != "HEALTH" {
		return HealthStatus{}, fmt.Errorf("qosnet: bad HEALTH response %q", line)
	}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return HealthStatus{}, fmt.Errorf("qosnet: bad HEALTH field %q", f)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return HealthStatus{}, fmt.Errorf("qosnet: bad HEALTH field %q", f)
		}
		switch k {
		case "devices":
			h.Devices = int(n)
		case "alive":
			h.Alive = int(n)
		case "s":
			h.EffectiveS = int(n)
		case "s_full":
			h.FullS = int(n)
		case "rebuild_pending":
			h.RebuildPending = int(n)
		case "rebuild_done":
			h.RebuildDone = n
		default:
			return HealthStatus{}, fmt.Errorf("qosnet: unknown HEALTH field %q", f)
		}
	}
	for {
		raw, err := c.r.ReadString('\n')
		if err != nil {
			return HealthStatus{}, err
		}
		raw = strings.TrimSpace(raw)
		if raw == "" {
			return h, nil
		}
		df := strings.Fields(raw)
		if len(df) != 4 || df[0] != "DEV" {
			return HealthStatus{}, fmt.Errorf("qosnet: bad DEV line %q", raw)
		}
		dev, err1 := strconv.Atoi(df[1])
		ewma, err2 := strconv.ParseFloat(df[3], 64)
		if err1 != nil || err2 != nil {
			return HealthStatus{}, fmt.Errorf("qosnet: bad DEV line %q", raw)
		}
		h.States = append(h.States, DeviceHealth{Device: dev, State: df[2], EWMAMS: ewma})
	}
}
