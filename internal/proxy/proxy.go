// Package proxy implements a stateless binary-protocol router in front of
// K independent qosd backends. Blocks are hash-partitioned across the
// backends with the same splitmix64 rule the in-process shard layer uses
// (shard.Route), so the proxy tier scales the aggregate guaranteed
// admission capacity to K·S per interval without any shared state between
// backends — the cluster analogue of qosd -shards.
//
// The proxy speaks the framed binary protocol (internal/wire) on both
// sides. Client frames are forwarded asynchronously over a per-backend
// connection pool — request IDs are remapped by the pool's BinaryClients
// and completions stream back out of order, so deep client pipelines stay
// pipelined end to end. Device ids are globalized: backend i's local
// device d appears to clients as offset(i)+d in outcomes, MAP responses,
// HEALTH reports, and the FAIL/RECOVER admin verbs route by that global
// numbering.
//
// Aggregation verbs fan out to every live backend: STATS sums the
// counters, HEALTH merges the per-device reports, SHARDSTATS concatenates
// the per-shard gauges in backend order, and METRICS renders a proxy-level
// exposition (backend up/down gauges plus aggregated totals).
//
// A prober goroutine per backend issues HEALTH probes every ProbeInterval
// on a fresh connection; EjectAfter consecutive failures eject the backend
// (its blocks answer error frames, aggregations skip it) until a probe
// succeeds again, at which point the connection pool is re-dialed and the
// backend rejoins.
package proxy

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flashqos/internal/qosnet"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

// Options configures the proxy tier.
type Options struct {
	// PoolSize is the number of pooled binary connections per backend.
	// 0 means DefaultPoolSize.
	PoolSize int
	// ProbeInterval is the backend health-probe period. 0 means
	// DefaultProbeInterval; negative disables probing (backends stay in
	// their startup state).
	ProbeInterval time.Duration
	// EjectAfter is the number of consecutive probe failures that eject a
	// backend. 0 means DefaultEjectAfter.
	EjectAfter int
	// ReadTimeout is the per-frame client read deadline (0 = none).
	ReadTimeout time.Duration
}

// Defaults for Options zero values.
const (
	DefaultPoolSize      = 2
	DefaultEjectAfter    = 3
	DefaultProbeInterval = 2 * time.Second
)

// backend is one downstream qosd process: its pooled connections, its
// global device-id window, and its probed liveness.
type backend struct {
	addr    string
	offset  int // first global device id owned by this backend
	devices int // device count, learned from HEALTH at startup
	pool    atomic.Pointer[[]*qosnet.BinaryClient]
	next    atomic.Uint64
	up      atomic.Bool
	fails   int // prober-goroutine local
}

// client picks a pooled connection round-robin.
func (b *backend) client() *qosnet.BinaryClient {
	cs := *b.pool.Load()
	return cs[(b.next.Add(1)-1)%uint64(len(cs))]
}

func (b *backend) closePool() {
	if cs := b.pool.Load(); cs != nil {
		for _, c := range *cs {
			c.Close()
		}
	}
}

// Proxy is the router tier. Create with New, then Listen and Serve.
type Proxy struct {
	opts     Options
	backends []*backend

	lis      net.Listener
	closed   chan struct{}
	closeOne sync.Once
	wg       sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// New connects to the given backend addresses and learns their device
// topology (a HEALTH round trip per backend, so backends must run with a
// health monitor — qosd's default). Global device ids are assigned in
// argument order: backend i owns [offset(i), offset(i)+devices(i)).
func New(addrs []string, opts Options) (*Proxy, error) {
	if len(addrs) == 0 {
		return nil, errors.New("proxy: no backends")
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = DefaultPoolSize
	}
	if opts.EjectAfter <= 0 {
		opts.EjectAfter = DefaultEjectAfter
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = DefaultProbeInterval
	}
	p := &Proxy{
		opts:   opts,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	offset := 0
	for _, addr := range addrs {
		b := &backend{addr: addr, offset: offset}
		if err := dialPool(b, opts.PoolSize); err != nil {
			p.closeBackends()
			return nil, fmt.Errorf("proxy: backend %s: %w", addr, err)
		}
		h, err := b.client().Health()
		if err != nil {
			b.closePool()
			p.closeBackends()
			return nil, fmt.Errorf("proxy: backend %s health probe: %w", addr, err)
		}
		b.devices = int(h.Devices)
		b.up.Store(true)
		offset += b.devices
		p.backends = append(p.backends, b)
	}
	return p, nil
}

func dialPool(b *backend, n int) error {
	cs := make([]*qosnet.BinaryClient, 0, n)
	for i := 0; i < n; i++ {
		c, err := qosnet.DialBinary(b.addr)
		if err != nil {
			for _, cc := range cs {
				cc.Close()
			}
			return err
		}
		cs = append(cs, c)
	}
	b.pool.Store(&cs)
	return nil
}

func (p *Proxy) closeBackends() {
	for _, b := range p.backends {
		b.closePool()
	}
}

// Backends reports the number of configured backends.
func (p *Proxy) Backends() int { return len(p.backends) }

// Devices reports the global device count across all backends.
func (p *Proxy) Devices() int {
	n := 0
	for _, b := range p.backends {
		n += b.devices
	}
	return n
}

// route returns the backend owning a block.
func (p *Proxy) route(block int64) *backend {
	return p.backends[shard.Route(block, len(p.backends))]
}

// deviceBackend resolves a global device id to its backend and local id.
func (p *Proxy) deviceBackend(global int) (*backend, int, bool) {
	for _, b := range p.backends {
		if global >= b.offset && global < b.offset+b.devices {
			return b, global - b.offset, true
		}
	}
	return nil, 0, false
}

// Listen binds the client-facing listener and returns the bound address.
func (p *Proxy) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p.lis = lis
	return lis.Addr(), nil
}

// Serve accepts client connections until Close. Each backend's prober
// starts with the first Serve call.
func (p *Proxy) Serve() error {
	if p.opts.ProbeInterval > 0 {
		for _, b := range p.backends {
			p.wg.Add(1)
			go p.probe(b)
		}
	}
	for {
		conn, err := p.lis.Accept()
		if err != nil {
			select {
			case <-p.closed:
				return nil
			default:
				return err
			}
		}
		p.connMu.Lock()
		p.conns[conn] = struct{}{}
		p.connMu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn)
			p.connMu.Lock()
			delete(p.conns, conn)
			p.connMu.Unlock()
		}()
	}
}

// Close stops serving: listener, client connections, probers, and backend
// pools are all shut down.
func (p *Proxy) Close() error {
	p.closeOne.Do(func() {
		close(p.closed)
		if p.lis != nil {
			p.lis.Close()
		}
		p.connMu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.connMu.Unlock()
	})
	p.wg.Wait()
	p.closeBackends()
	return nil
}

// probe watches one backend: a HEALTH round trip on a fresh connection
// every ProbeInterval. EjectAfter consecutive failures mark the backend
// down; the first success re-dials the pool and marks it up again. A
// healthy backend whose pooled connections have died (e.g. a transient
// network reset) gets its pool re-dialed too.
func (p *Proxy) probe(b *backend) {
	defer p.wg.Done()
	t := time.NewTicker(p.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-t.C:
		}
		c, err := qosnet.DialBinary(b.addr)
		if err == nil {
			_, err = c.Health()
			c.Close()
		}
		if err != nil {
			b.fails++
			if b.fails >= p.opts.EjectAfter && b.up.Load() {
				b.up.Store(false)
			}
			continue
		}
		b.fails = 0
		if !b.up.Load() {
			old := b.pool.Load()
			if derr := dialPool(b, p.opts.PoolSize); derr != nil {
				continue // still unreachable for a full pool; stay down
			}
			for _, cc := range *old {
				cc.Close()
			}
			b.up.Store(true)
			continue
		}
		// Up, but replace a pool with dead connections.
		for _, cc := range *b.pool.Load() {
			if cc.Err() != nil {
				old := b.pool.Load()
				if derr := dialPool(b, p.opts.PoolSize); derr == nil {
					for _, occ := range *old {
						occ.Close()
					}
				}
				break
			}
		}
	}
}

// call runs one synchronous round trip on a pooled client and unwraps
// error frames. The response payload is copied out of the demultiplexer
// into dst's backing (grown as needed; pass nil for a fresh allocation),
// so callers holding pooled scratch reuse it across calls.
func call(c *qosnet.BinaryClient, op uint8, payload, dst []byte) ([]byte, error) {
	type result struct {
		p   []byte
		err error
	}
	ch := make(chan result, 1)
	c.CallFlags(op, 0, payload, func(h wire.Header, p []byte, err error) {
		if err == nil && h.Flags&wire.FlagError != 0 {
			err = errors.New(string(p))
			p = nil
		}
		ch <- result{p: append(dst[:0], p...), err: err}
	})
	r := <-ch
	return r.p, r.err
}

// handle serves one client connection.
func (p *Proxy) handle(conn net.Conn) {
	defer conn.Close()
	rd := wire.NewReader(bufio.NewReaderSize(conn, 32768), wire.DefaultMaxPayload)
	done := make(chan struct{})
	defer close(done)
	w := qosnet.NewFrameWriter(conn, done)
	for {
		if p.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(p.opts.ReadTimeout))
		}
		h, payload, err := rd.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				w.WriteError(wire.Header{}, err.Error())
				// The deferred close stops the flusher before it runs.
				w.Flush()
			}
			return
		}
		switch h.Opcode {
		case wire.OpSubmit, wire.OpWrite:
			p.forwardSubmit(w, h, payload)
		case wire.OpBatch:
			p.forwardBatch(w, h, payload)
		case wire.OpMap:
			p.forwardMap(w, h, payload)
		case wire.OpStats:
			p.aggregateStats(w, h)
		case wire.OpMetrics:
			p.metrics(w, h)
		case wire.OpFail, wire.OpRecover:
			p.forwardAdmin(w, h, payload)
		case wire.OpHealth:
			p.aggregateHealth(w, h)
		case wire.OpShardStats:
			p.aggregateShardStats(w, h)
		case wire.OpTenantHello:
			p.forwardTenantHello(w, h, payload)
		case wire.OpTenant:
			p.forwardTenant(w, h, payload)
		case wire.OpTenantStats:
			p.aggregateTenantStats(w, h)
		case wire.OpQuit:
			return
		default:
			w.WriteError(wire.Header{Opcode: h.Opcode, ID: h.ID},
				"unknown opcode "+strconv.Itoa(int(h.Opcode)))
		}
		if w.Err() != nil {
			return
		}
	}
}

// forwardSubmit routes one READ/WRITE to the owning backend and streams
// the completion back asynchronously with the device id globalized. This
// is the hot path: no waiting, the client's pipeline depth carries
// through to the backend pool. A tenant-tagged frame (FlagTenant) is
// forwarded with its flag and payload unchanged — the backend owns tenant
// validation and answers an unknown index with the error frame relayed
// below — the proxy only decodes the block id to route.
func (p *Proxy) forwardSubmit(w *qosnet.FrameWriter, h wire.Header, payload []byte) {
	resp := wire.Header{Opcode: h.Opcode, ID: h.ID}
	var (
		block int64
		err   error
	)
	flags := h.Flags & wire.FlagTenant
	if flags != 0 {
		block, _, err = wire.ParseTenantBlock(payload)
	} else {
		block, err = wire.ParseBlock(payload)
	}
	if err != nil {
		w.WriteError(resp, "bad block payload")
		return
	}
	b := p.route(block)
	if !b.up.Load() {
		w.WriteError(resp, "backend down: "+b.addr)
		return
	}
	off := int32(b.offset)
	// CallFlags copies the payload into the pool connection's write buffer
	// before returning, so forwarding the reader's bytes directly is safe.
	b.client().CallFlags(h.Opcode, flags, payload,
		func(rh wire.Header, rp []byte, rerr error) {
			if rerr != nil {
				w.WriteError(resp, rerr.Error())
				return
			}
			if rh.Flags&wire.FlagError != 0 {
				w.WriteError(resp, string(rp))
				return
			}
			o, _, perr := wire.ParseOutcome(rp)
			if perr != nil {
				w.WriteError(resp, "bad backend outcome")
				return
			}
			if o.Device >= 0 {
				o.Device += off
			}
			w.WriteOutcome(resp, o)
		})
}

// forwardBatch splits a joint-admission batch by owning backend, forwards
// the sub-batches concurrently, and reassembles the outcomes in input
// order. Joint admission holds within each backend (which is where window
// capacity lives); across backends the partitions are independent anyway.
// All split/merge scratch comes from a pooled batchScratch — each fan-out
// goroutine owns its backend's slots, so steady state allocates nothing
// beyond the round-trip channels. BinaryClient.Call copies the request
// payload into its write buffer before returning and the connection
// writer copies the response payload likewise, so the scratch can go back
// to the pool as soon as this function returns.
func (p *Proxy) forwardBatch(w *qosnet.FrameWriter, h wire.Header, payload []byte) {
	resp := wire.Header{Opcode: wire.OpBatch, ID: h.ID}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	blocks, err := wire.ParseBatchReq(payload, sc.blocks)
	if blocks != nil {
		sc.blocks = blocks
	}
	if err != nil {
		w.WriteError(resp, "bad batch payload")
		return
	}
	splitBatch(blocks, len(p.backends), sc)
	outs := sc.outBuf(len(blocks))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ferr error
	for bi := range p.backends {
		if len(sc.parts[bi]) == 0 {
			continue
		}
		wg.Add(1)
		go func(bi int, b *backend) {
			defer wg.Done()
			if !b.up.Load() {
				mu.Lock()
				ferr = errors.New("backend down: " + b.addr)
				mu.Unlock()
				return
			}
			sc.reqs[bi] = wire.AppendBatchReq(sc.reqs[bi][:0], sc.parts[bi])
			rp, err := call(b.client(), wire.OpBatch, sc.reqs[bi], sc.rps[bi])
			if rp != nil {
				sc.rps[bi] = rp
			}
			var sub []wire.Outcome
			if err == nil {
				sub, err = wire.ParseBatchResp(rp, sc.subs[bi])
				if sub != nil {
					sc.subs[bi] = sub
				}
			}
			if err == nil && len(sub) != len(sc.idxs[bi]) {
				err = errors.New("backend batch size mismatch")
			}
			if err != nil {
				mu.Lock()
				ferr = err
				mu.Unlock()
				return
			}
			mergeBatch(outs, sub, sc.idxs[bi], int32(b.offset))
		}(bi, p.backends[bi])
	}
	wg.Wait()
	if ferr != nil {
		w.WriteError(resp, ferr.Error())
		return
	}
	sc.resp = wire.AppendBatchResp(sc.resp[:0], outs)
	w.WriteFrame(resp, sc.resp)
}

// forwardMap routes a MAP to the owning backend and globalizes the replica
// device ids.
func (p *Proxy) forwardMap(w *qosnet.FrameWriter, h wire.Header, payload []byte) {
	resp := wire.Header{Opcode: wire.OpMap, ID: h.ID}
	block, err := wire.ParseBlock(payload)
	if err != nil {
		w.WriteError(resp, "bad block payload")
		return
	}
	b := p.route(block)
	if !b.up.Load() {
		w.WriteError(resp, "backend down: "+b.addr)
		return
	}
	rp, err := call(b.client(), wire.OpMap, wire.AppendBlock(nil, block), nil)
	if err != nil {
		w.WriteError(resp, err.Error())
		return
	}
	m, err := wire.ParseMapResp(rp)
	if err != nil {
		w.WriteError(resp, "bad backend map response")
		return
	}
	for i := range m.Devices {
		m.Devices[i] += int32(b.offset)
	}
	w.WriteFrame(resp, wire.AppendMapResp(nil, m))
}

// upBackends snapshots the live backends.
func (p *Proxy) upBackends() []*backend {
	bs := make([]*backend, 0, len(p.backends))
	for _, b := range p.backends {
		if b.up.Load() {
			bs = append(bs, b)
		}
	}
	return bs
}

// gatherStats fans a STATS round trip out to every live backend and sums.
func (p *Proxy) gatherStats() (wire.Stats, error) {
	parts, err := fanOut(p.upBackends(), func(b *backend) (wire.Stats, error) {
		req, del, rej, avg, err := b.client().Stats()
		return wire.Stats{Requests: req, Delayed: del, Rejected: rej, AvgDelayMS: avg}, err
	})
	if err != nil {
		return wire.Stats{}, err
	}
	var agg wire.Stats
	var delaySum float64
	for _, s := range parts {
		agg.Requests += s.Requests
		agg.Delayed += s.Delayed
		agg.Rejected += s.Rejected
		delaySum += s.AvgDelayMS * float64(s.Delayed)
	}
	if agg.Delayed > 0 {
		agg.AvgDelayMS = delaySum / float64(agg.Delayed)
	}
	return agg, nil
}

func (p *Proxy) aggregateStats(w *qosnet.FrameWriter, h wire.Header) {
	resp := wire.Header{Opcode: wire.OpStats, ID: h.ID}
	agg, err := p.gatherStats()
	if err != nil {
		w.WriteError(resp, err.Error())
		return
	}
	w.WriteFrame(resp, wire.AppendStats(nil, agg))
}

// metrics renders the proxy-level exposition: topology and liveness
// gauges plus the aggregated request counters.
func (p *Proxy) metrics(w *qosnet.FrameWriter, h wire.Header) {
	resp := wire.Header{Opcode: wire.OpMetrics, ID: h.ID}
	agg, err := p.gatherStats()
	if err != nil {
		w.WriteError(resp, err.Error())
		return
	}
	buf := make([]byte, 0, 512)
	buf = append(buf, "# HELP flashqos_proxy_backends Configured qosd backends behind this proxy.\n"...)
	buf = append(buf, "# TYPE flashqos_proxy_backends gauge\nflashqos_proxy_backends "...)
	buf = strconv.AppendInt(buf, int64(len(p.backends)), 10)
	buf = append(buf, "\n# HELP flashqos_proxy_backend_up Backend liveness (1 = serving, 0 = ejected).\n"...)
	buf = append(buf, "# TYPE flashqos_proxy_backend_up gauge\n"...)
	for i, b := range p.backends {
		buf = append(buf, "flashqos_proxy_backend_up{backend=\""...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, "\",addr=\""...)
		buf = append(buf, b.addr...)
		buf = append(buf, "\"} "...)
		if b.up.Load() {
			buf = append(buf, '1')
		} else {
			buf = append(buf, '0')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "# HELP flashqos_proxy_requests_total Requests summed over live backends.\n"...)
	buf = append(buf, "# TYPE flashqos_proxy_requests_total counter\nflashqos_proxy_requests_total "...)
	buf = strconv.AppendInt(buf, agg.Requests, 10)
	buf = append(buf, "\nflashqos_proxy_delayed_total "...)
	buf = strconv.AppendInt(buf, agg.Delayed, 10)
	buf = append(buf, "\nflashqos_proxy_rejected_total "...)
	buf = strconv.AppendInt(buf, agg.Rejected, 10)
	buf = append(buf, '\n')
	// Cluster-wide tenant gauges, merged across backends by name. A fan-out
	// failure drops the section rather than the whole page: the topology
	// gauges above stay scrapeable while a backend is flapping.
	if tenants, err := p.gatherTenantStats(); err == nil && len(tenants) > 0 {
		appendSeries := func(name string, pick func(wire.TenantEntry) int64) {
			buf = append(buf, "# TYPE "...)
			buf = append(buf, name...)
			buf = append(buf, " counter\n"...)
			for _, e := range tenants {
				buf = append(buf, name...)
				buf = append(buf, "{tenant=\""...)
				buf = append(buf, e.Spec.Name...)
				buf = append(buf, "\"} "...)
				buf = strconv.AppendInt(buf, pick(e), 10)
				buf = append(buf, '\n')
			}
		}
		appendSeries("flashqos_proxy_tenant_admitted_total", func(e wire.TenantEntry) int64 { return e.Admitted })
		appendSeries("flashqos_proxy_tenant_rejected_total", func(e wire.TenantEntry) int64 { return e.Rejected })
		appendSeries("flashqos_proxy_tenant_over_limit_total", func(e wire.TenantEntry) int64 { return e.OverLimit })
	}
	w.WriteFrame(resp, buf)
}

// forwardAdmin routes FAIL/RECOVER by global device id and passes the
// owning backend's response through.
func (p *Proxy) forwardAdmin(w *qosnet.FrameWriter, h wire.Header, payload []byte) {
	resp := wire.Header{Opcode: h.Opcode, ID: h.ID}
	dev, err := wire.ParseDevice(payload)
	if err != nil {
		w.WriteError(resp, "bad device payload")
		return
	}
	b, local, ok := p.deviceBackend(int(dev))
	if !ok {
		w.WriteError(resp, "bad device "+strconv.Itoa(int(dev)))
		return
	}
	if !b.up.Load() {
		w.WriteError(resp, "backend down: "+b.addr)
		return
	}
	rp, err := call(b.client(), h.Opcode, wire.AppendDevice(nil, uint32(local)), nil)
	if err != nil {
		w.WriteError(resp, err.Error())
		return
	}
	w.WriteFrame(resp, rp)
}

// aggregateHealth merges every backend's HEALTH report into the global
// device numbering. Ejected backends contribute their configured device
// count as unreachable devices, so the summary degrades instead of lying.
func (p *Proxy) aggregateHealth(w *qosnet.FrameWriter, h wire.Header) {
	resp := wire.Header{Opcode: wire.OpHealth, ID: h.ID}
	reports, err := fanOut(p.backends, func(b *backend) (*wire.Health, error) {
		if !b.up.Load() {
			return nil, nil // reported below as unreachable placeholders
		}
		hs, err := b.client().Health()
		return &hs, err
	})
	if err != nil {
		w.WriteError(resp, err.Error())
		return
	}
	var agg wire.Health
	for i, b := range p.backends {
		agg.Devices += int32(b.devices)
		r := reports[i]
		if r == nil {
			for d := 0; d < b.devices; d++ {
				agg.States = append(agg.States, wire.DeviceHealth{
					Device: int32(b.offset + d), State: "unreachable",
				})
			}
			continue
		}
		agg.Alive += r.Alive
		agg.EffectiveS += r.EffectiveS
		agg.FullS += r.FullS
		agg.RebuildPending += r.RebuildPending
		agg.RebuildDone += r.RebuildDone
		for _, d := range r.States {
			d.Device += int32(b.offset)
			agg.States = append(agg.States, d)
		}
	}
	w.WriteFrame(resp, wire.AppendHealth(nil, agg))
}

// aggregateShardStats concatenates the per-shard gauges of every live
// backend in backend order.
func (p *Proxy) aggregateShardStats(w *qosnet.FrameWriter, h wire.Header) {
	resp := wire.Header{Opcode: wire.OpShardStats, ID: h.ID}
	parts, err := fanOut(p.upBackends(), func(b *backend) ([]wire.ShardGauge, error) {
		return b.client().ShardStats()
	})
	if err != nil {
		w.WriteError(resp, err.Error())
		return
	}
	var all []wire.ShardGauge
	for _, gs := range parts {
		all = append(all, gs...)
	}
	w.WriteFrame(resp, wire.AppendShardStats(nil, all))
}
