// Package qosnet exposes a QoS system over TCP, modelling the storage-cloud
// deployment the paper motivates (§I): tenants submit block reads to a
// shared flash array and receive the admission outcome and guaranteed
// response time. Programs speak the framed binary protocol (DialBinary);
// the line protocol below is for people with nc.
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
// from a monotonic clock once per socket fill — every request drained from
// one read arrived together — so the simulated array timeline matches real
// request interleaving.
//
// # One verb table, two wire formats
//
// The binary protocol (internal/wire) is a length-prefixed framing: a
// 16-byte header carrying a request ID lets one connection multiplex many
// in-flight requests with out-of-order completion. Every verb is
// implemented once, as the binary opcode table (session.serve). The line
// protocol is a format adapter in front of it: a request line is
// translated into the frame the binary protocol carries for the same
// request, served by the same table, and the response frame is rendered
// back into the reply line above. The protocol is auto-detected per
// connection from the first byte (the frame magic 0xFB is not a byte any
// text verb starts with); Options.Proto restricts the server to one
// protocol. Text and binary connections interleave freely against one
// server. See DESIGN.md §11 for the frame layout.
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
//   - Each connection owns its read buffer, its reply buffer and its
//     dispatch scratch, so connections never contend on I/O state.
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
// A single system is served as a one-shard array (shard.FromSystems), so a
// standalone deployment behaves exactly as before.
package qosnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// DefaultMaxLineBytes per request line, and both protocols enabled. A
// binary frame announcing more than wire.DefaultMaxPayload bytes is a
// protocol violation: the stream cannot be resynchronized, so the
// connection is closed after an error frame.
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
// space partitioned across them — over TCP. Create with NewServerSharded,
// then Serve.
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

// NewServerSharded serves a pre-built sharded array. A single core.System
// is served as a one-shard array built with shard.FromSystems.
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
		conn.Write(wire.AppendFrame(nil, wire.Header{Flags: wire.FlagError}, []byte("text protocol disabled")))
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

// handleText serves one line-protocol connection as a format adapter in
// front of the verb table: each request line is translated into the frame
// the binary protocol carries for the same request (translateLine), served
// by session.serve — a READ/WRITE as a burst of one — and the response
// frame is rendered back into the documented reply (appendReply). Replies
// keep line order, and arrival follows the binary rule: one clock reading
// per socket fill.
func (s *Server) handleText(conn net.Conn, r *bufio.Reader, st *stripe) {
	c := s.newSession(st)
	req := make([]byte, 0, 64) // request payload scratch
	var text []byte            // rendered replies not yet written
	for {
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		raw, tooLong, err := readLine(r, s.opts.MaxLineBytes)
		switch f := strings.Fields(string(raw)); {
		case tooLong:
			text = append(text, "ERR line too long\n"...)
		case err != nil:
			return
		case len(f) > 0:
			c.stamp()
			h, payload, terr := c.translateLine(f, req[:0])
			switch {
			case terr != nil:
				c.fail(h, terr.Error())
			case c.serve(h, payload):
				conn.Write(text)
				return
			}
			c.flushBurst()
			text = appendReply(text, c.out)
			c.out = c.out[:0]
		}
		// Batch replies to pipelined clients: write only when the read
		// buffer holds no further complete request — the next read may
		// block — so a deep pipeline costs one write per socket fill.
		more := err == nil && moreRequestsBuffered(r)
		if len(text) > 0 && (!more || len(text) >= connReadBuf) {
			if _, werr := conn.Write(text); werr != nil || err != nil {
				return
			}
			text = text[:0]
		}
		if !more {
			c.arrival = -1 // next line comes off a fresh fill
		}
	}
}

// translateLine translates one request line, split into fields, into the
// header and payload (appended to req) of the frame the binary protocol
// carries for the same request. A line the text grammar rejects returns
// the error its ERR reply carries; refusals that depend on server state —
// a tenant deleted since its name resolved, a device the monitor will not
// fail, a tenant policy the gate rejects — are the verb table's.
func (c *session) translateLine(f []string, req []byte) (wire.Header, []byte, error) {
	verb := strings.ToUpper(f[0])
	switch verb {
	case "READ", "WRITE":
		if len(f) != 2 && len(f) != 3 {
			return wire.Header{}, nil, fmt.Errorf("usage: %s <block> [tenant]", verb)
		}
		block, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return wire.Header{}, nil, fmt.Errorf("bad block: %v", err)
		}
		h := wire.Header{Opcode: wire.OpSubmit}
		if verb == "WRITE" {
			h.Opcode = wire.OpWrite
		}
		if len(f) == 2 {
			return h, wire.AppendBlock(req, block), nil
		}
		// Text clients tag by name; resolving it is a cold-path registry
		// lookup. An unknown name is the refusal the verb table gives an
		// unknown index.
		tenant := c.s.arr.TenantIndex(f[2])
		if tenant == 0 {
			return h, nil, errUnknownTenant
		}
		h.Flags = wire.FlagTenant
		return h, wire.AppendTenantBlock(req, block, tenant), nil
	case "MAP":
		if len(f) != 2 {
			return wire.Header{}, nil, errors.New("usage: MAP <block>")
		}
		block, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return wire.Header{}, nil, fmt.Errorf("bad block: %v", err)
		}
		return wire.Header{Opcode: wire.OpMap}, wire.AppendBlock(req, block), nil
	case "STATS":
		return wire.Header{Opcode: wire.OpStats}, nil, nil
	case "METRICS":
		return wire.Header{Opcode: wire.OpMetrics}, nil, nil
	case "HEALTH":
		return wire.Header{Opcode: wire.OpHealth}, nil, nil
	case "QUIT":
		return wire.Header{Opcode: wire.OpQuit}, nil, nil
	case "FAIL", "RECOVER":
		if len(f) != 2 {
			return wire.Header{}, nil, fmt.Errorf("usage: %s <device>", verb)
		}
		// Without a monitor the device is not validated: the verb table
		// answers the missing monitor first, as the line protocol always has.
		dev, err := strconv.Atoi(f[1])
		if c.hasHealth && (err != nil || dev < 0 || dev >= c.s.arr.Devices()) {
			return wire.Header{}, nil, fmt.Errorf("bad device %q", f[1])
		}
		h := wire.Header{Opcode: wire.OpFail}
		if verb == "RECOVER" {
			h.Opcode = wire.OpRecover
		}
		return h, wire.AppendDevice(req, uint32(dev)), nil
	case "TENANT":
		const usage = "usage: TENANT SET <name> <reserve> <limit> <weight>"
		if len(f) < 3 {
			return wire.Header{}, nil, errors.New(usage + " | GET <name> | DEL <name>")
		}
		spec := wire.TenantSpec{Name: f[2]}
		var cmd uint8
		switch sub := strings.ToUpper(f[1]); sub {
		case "SET":
			if len(f) != 6 {
				return wire.Header{}, nil, errors.New(usage)
			}
			reserve, err1 := strconv.ParseInt(f[3], 10, 32)
			limit, err2 := strconv.ParseInt(f[4], 10, 32)
			weight, err3 := strconv.ParseFloat(f[5], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return wire.Header{}, nil, errors.New("bad TENANT SET arguments")
			}
			cmd, spec.Reserve, spec.Limit, spec.Weight = wire.TenantCmdSet, int32(reserve), int32(limit), weight
		case "GET", "DEL":
			if len(f) != 3 {
				return wire.Header{}, nil, fmt.Errorf("usage: TENANT %s <name>", sub)
			}
			cmd = wire.TenantCmdGet
			if sub == "DEL" {
				cmd = wire.TenantCmdDel
			}
		default:
			return wire.Header{}, nil, fmt.Errorf("unknown TENANT subcommand %q", f[1])
		}
		if len(spec.Name) > 255 { // the frame carries a one-byte name length
			return wire.Header{}, nil, errors.New("tenant name longer than 255 bytes")
		}
		return wire.Header{Opcode: wire.OpTenant}, wire.AppendTenantReq(req, cmd, spec), nil
	}
	return wire.Header{}, nil, fmt.Errorf("unknown command %q", f[0])
}

// appendReply renders one response frame from serve as the line protocol
// documents it for the frame's opcode: one line, or a blank-terminated
// block for METRICS and HEALTH. serve encoded the frame in this process,
// so its payload decodes by construction and decode errors are ignored.
func appendReply(dst, frame []byte) []byte {
	h, _ := wire.ParseHeader(frame)
	p := frame[wire.HeaderSize:]
	if h.Flags&wire.FlagError != 0 {
		dst = append(append(dst, "ERR "...), p...)
		return append(dst, '\n')
	}
	switch h.Opcode {
	case wire.OpSubmit, wire.OpWrite:
		o, _, _ := wire.ParseOutcome(p)
		if o.Rejected() {
			return append(dst, "REJECTED\n"...)
		}
		dst = strconv.AppendInt(append(dst, "OK "...), int64(o.Device), 10)
		dst = strconv.AppendFloat(append(dst, ' '), o.DelayMS, 'f', 6, 64)
		dst = strconv.AppendFloat(append(dst, ' '), o.RespMS, 'f', 6, 64)
		dst = strconv.AppendBool(append(dst, ' '), o.Delayed())
		return append(dst, '\n')
	case wire.OpMap:
		m, _ := wire.ParseMapResp(p)
		dst = strconv.AppendInt(append(dst, "MAP "...), int64(m.DesignBlock), 10)
		for _, d := range m.Devices {
			dst = strconv.AppendInt(append(dst, ' '), int64(d), 10)
		}
		return append(dst, '\n')
	case wire.OpStats:
		st, _ := wire.ParseStats(p)
		return fmt.Appendf(dst, "STATS %d %d %d %.6f\n", st.Requests, st.Delayed, st.Rejected, st.AvgDelayMS)
	case wire.OpMetrics:
		return append(append(dst, p...), '\n') // blank-line terminator
	case wire.OpFail, wire.OpRecover:
		a, _ := wire.ParseAdminResp(p)
		return fmt.Appendf(dst, "OK %s %d\n", a.State, a.EffectiveS)
	case wire.OpHealth:
		hr, _ := wire.ParseHealth(p)
		dst = fmt.Appendf(dst, "HEALTH devices=%d alive=%d s=%d s_full=%d rebuild_pending=%d rebuild_done=%d\n",
			hr.Devices, hr.Alive, hr.EffectiveS, hr.FullS, hr.RebuildPending, hr.RebuildDone)
		for _, d := range hr.States {
			dst = fmt.Appendf(dst, "DEV %d %s %.6f\n", d.Device, d.State, d.EWMAMS)
		}
		return append(dst, '\n')
	case wire.OpTenant: // SET answers the tenant's index, GET one entry, DEL nothing
		switch len(p) {
		case 0:
			return append(dst, "OK deleted\n"...)
		case 4:
			return fmt.Appendf(dst, "OK %d\n", int32(binary.LittleEndian.Uint32(p)))
		}
		es, _ := wire.ParseTenantStats(p)
		e := es[0]
		return fmt.Appendf(dst, "TENANT %s index=%d reserve=%d limit=%d weight=%g admitted=%d rejected=%d overlimit=%d deficit=%d\n",
			e.Spec.Name, e.Index, e.Spec.Reserve, e.Spec.Limit, e.Spec.Weight, e.Admitted, e.Rejected, e.OverLimit, e.Deficit)
	}
	return dst
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
