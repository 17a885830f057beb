package qosnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"flashqos/internal/wire"
)

// ReadResult is the outcome of a READ/WRITE (or GET/PUT) request.
type ReadResult struct {
	Device   int
	DelayMS  float64
	RespMS   float64
	Delayed  bool
	Rejected bool
	// OverLimit marks a rejection by the tenant gate's per-window arrival
	// limit (the text REJECTED line does not distinguish it).
	OverLimit bool
}

// SubmitResult is one asynchronous READ/WRITE completion delivered by a
// BinaryClient. ID is the request ID the completion answered — under deep
// pipelining (and behind a proxy) completions arrive out of order.
type SubmitResult struct {
	ReadResult
	ID  uint64
	Err error
}

// FrameWriter serializes frames onto one connection from any number of
// goroutines: BinaryClient's requests, and the proxy's responses, which
// arrive from every backend's demultiplexer. A write lands in the buffer
// under a mutex and kicks a flusher goroutine; the kick channel holds one
// token, so a burst of writes between wakeups coalesces into one flush —
// one write syscall per burst, not one per frame. The first write or flush
// error is sticky: every later write returns it and writes nothing.
type FrameWriter struct {
	mu   sync.Mutex
	bw   *bufio.Writer
	wr   *wire.Writer
	err  error
	kick chan struct{}
}

// NewFrameWriter starts a FrameWriter over w whose flusher runs until done
// is closed.
func NewFrameWriter(w io.Writer, done <-chan struct{}) *FrameWriter {
	fw := &FrameWriter{bw: bufio.NewWriterSize(w, connReadBuf), kick: make(chan struct{}, 1)}
	fw.wr = wire.NewWriter(fw.bw)
	go fw.flusher(done)
	return fw
}

func (fw *FrameWriter) flusher(done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-fw.kick:
			fw.Flush()
		}
	}
}

// Flush writes out the buffered frames now and returns the sticky error.
func (fw *FrameWriter) Flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.err == nil {
		fw.err = fw.bw.Flush()
	}
	return fw.err
}

// Err returns the sticky error, nil while every write has succeeded.
func (fw *FrameWriter) Err() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.err
}

// write runs one frame encoder under the lock unless a write has already
// failed, then wakes the flusher.
func (fw *FrameWriter) write(frame func(*wire.Writer) error) error {
	fw.mu.Lock()
	if fw.err == nil {
		fw.err = frame(fw.wr)
	}
	err := fw.err
	fw.mu.Unlock()
	if err == nil {
		select {
		case fw.kick <- struct{}{}:
		default:
		}
	}
	return err
}

// WriteFrame buffers one frame; see wire.Writer.WriteFrame.
func (fw *FrameWriter) WriteFrame(h wire.Header, payload []byte) error {
	return fw.write(func(wr *wire.Writer) error { return wr.WriteFrame(h, payload) })
}

// WriteOutcome buffers one outcome frame; see wire.Writer.WriteOutcome.
func (fw *FrameWriter) WriteOutcome(h wire.Header, o wire.Outcome) error {
	return fw.write(func(wr *wire.Writer) error { return wr.WriteOutcome(h, o) })
}

// WriteError buffers one error frame; see wire.Writer.WriteError.
func (fw *FrameWriter) WriteError(h wire.Header, msg string) error {
	return fw.write(func(wr *wire.Writer) error { return wr.WriteError(h, msg) })
}

// BinaryClient speaks the framed binary protocol over one connection with
// arbitrarily deep pipelining: SubmitAsync enqueues a request and returns a
// channel, a demultiplexer goroutine routes completions back by request
// ID, and a FrameWriter batches the pending writes into few syscalls. All
// methods are safe for concurrent use; the synchronous verbs (Read, Stats,
// Health, ...) are thin wrappers that wait for their own completion and
// may interleave with async traffic.
type BinaryClient struct {
	conn net.Conn
	w    *FrameWriter

	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]func(h wire.Header, payload []byte, err error)
	failed  error // terminal demux error; set once under pmu

	done chan struct{}
	once sync.Once
}

// DialBinary connects to a qosnet server's binary protocol.
func DialBinary(addr string) (*BinaryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewBinaryClient(conn), nil
}

// NewBinaryClient speaks the binary protocol over an established
// connection (which it takes ownership of).
func NewBinaryClient(conn net.Conn) *BinaryClient {
	c := &BinaryClient{
		conn:    conn,
		pending: make(map[uint64]func(wire.Header, []byte, error)),
		done:    make(chan struct{}),
	}
	c.w = NewFrameWriter(conn, c.done)
	go c.demux()
	return c
}

// demux routes response frames to their registered completion callbacks.
// Callbacks run on this goroutine with a payload that is only valid for
// the duration of the call.
func (c *BinaryClient) demux() {
	rd := wire.NewReader(bufio.NewReaderSize(c.conn, connReadBuf), 0)
	for {
		h, payload, err := rd.Next()
		if err != nil {
			c.fail(fmt.Errorf("qosnet: binary connection lost: %w", err))
			return
		}
		c.pmu.Lock()
		cb := c.pending[h.ID]
		delete(c.pending, h.ID)
		c.pmu.Unlock()
		if cb != nil {
			cb(h, payload, nil)
		}
		// A frame with no waiter (e.g. the registration raced a server
		// error frame with ID 0) is dropped.
	}
}

// fail marks the client dead and completes every pending request with err.
func (c *BinaryClient) fail(err error) {
	c.pmu.Lock()
	if c.failed == nil {
		c.failed = err
	}
	stranded := c.pending
	c.pending = nil
	c.pmu.Unlock()
	c.once.Do(func() { close(c.done) })
	for _, cb := range stranded {
		cb(wire.Header{}, nil, err)
	}
}

// Err reports the terminal connection error, nil while the client is live.
func (c *BinaryClient) Err() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.failed
}

// Done is closed when the connection dies or Close is called.
func (c *BinaryClient) Done() <-chan struct{} { return c.done }

// call registers cb for request id and frames the request; the payload
// bytes are copied into the write buffer before call returns. cb runs
// exactly once: on the demultiplexer goroutine with the response header
// and payload (valid only for the duration of the call), or on the
// caller's with the error when the request could not be enqueued.
func (c *BinaryClient) call(id uint64, op, flags uint8, payload []byte, cb func(h wire.Header, payload []byte, err error)) {
	c.pmu.Lock()
	err := c.failed
	if err == nil {
		c.pending[id] = cb
	}
	c.pmu.Unlock()
	if err != nil {
		cb(wire.Header{}, nil, err)
		return
	}
	if err = c.w.WriteFrame(wire.Header{Opcode: op, Flags: flags, ID: id}, payload); err == nil {
		return
	}
	// Withdraw the registration — unless a failing demultiplexer has
	// already completed it.
	c.pmu.Lock()
	_, pending := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if pending {
		cb(wire.Header{}, nil, err)
	}
}

// Close sends OpQuit and closes the connection. In-flight requests
// complete with a connection-lost error.
func (c *BinaryClient) Close() error {
	c.w.WriteFrame(wire.Header{Opcode: wire.OpQuit, ID: c.nextID.Add(1)}, nil)
	c.w.Flush()
	c.once.Do(func() { close(c.done) })
	return c.conn.Close()
}

// errorFrame converts an error response payload into an error.
func errorFrame(payload []byte) error { return errors.New("qosnet: server error: " + string(payload)) }

func fromWireOutcome(o wire.Outcome) ReadResult {
	return ReadResult{
		Device:    int(o.Device),
		DelayMS:   o.DelayMS,
		RespMS:    o.RespMS,
		Delayed:   o.Delayed(),
		Rejected:  o.Rejected(),
		OverLimit: o.OverLimit(),
	}
}

// SubmitAsync enqueues a pipelined block read. The returned channel
// (capacity 1) delivers exactly one completion; it never blocks the
// demultiplexer.
func (c *BinaryClient) SubmitAsync(block int64) <-chan SubmitResult {
	return c.submitBlock(wire.OpSubmit, block, 0)
}

// ReadTenant submits a block read under a tenant index (1-based,
// negotiated via TenantHello) and waits for the outcome. The server answers
// an unknown index with an error frame, never a silent untenanted
// admission.
func (c *BinaryClient) ReadTenant(block int64, tenant int32) (ReadResult, error) {
	res := <-c.submitBlock(wire.OpSubmit, block, tenant)
	return res.ReadResult, res.Err
}

func (c *BinaryClient) submitBlock(op uint8, block int64, tenant int32) <-chan SubmitResult {
	// The tenant tag adds a flag bit and a trailing uvarint; untenanted
	// requests keep the exact 8-byte payload and zero flags.
	var payload [13]byte
	if tenant != 0 {
		return c.submitAsync(op, wire.FlagTenant, wire.AppendTenantBlock(payload[:0], block, tenant))
	}
	return c.submitAsync(op, 0, wire.AppendBlock(payload[:0], block))
}

// submitAsync frames one request answered by an outcome frame (READ, WRITE,
// PUT) and returns a channel (capacity 1, so it never blocks the
// demultiplexer) that delivers exactly one completion.
func (c *BinaryClient) submitAsync(op, flags uint8, payload []byte) <-chan SubmitResult {
	ch := make(chan SubmitResult, 1)
	id := c.nextID.Add(1)
	c.call(id, op, flags, payload, func(h wire.Header, p []byte, err error) {
		if err == nil && h.Flags&wire.FlagError != 0 {
			err = errorFrame(p)
		}
		var o wire.Outcome
		if err == nil {
			o, _, err = wire.ParseOutcome(p)
		}
		ch <- SubmitResult{ID: id, ReadResult: fromWireOutcome(o), Err: err}
	})
	return ch
}

// CallFlags enqueues one framed request with the given header flags and
// invokes cb exactly once with the response header and payload (the
// payload is valid only for the duration of the call) or a terminal error.
// cb normally runs on the demultiplexer goroutine; on enqueue failure it
// runs on the caller's. This is the building block the proxy tier forwards
// frames with — no per-request round-trip serialization, and tenant-tagged
// frames (FlagTenant) pass through without re-encoding.
func (c *BinaryClient) CallFlags(op, flags uint8, payload []byte, cb func(h wire.Header, payload []byte, err error)) {
	c.call(c.nextID.Add(1), op, flags, payload, cb)
}

// do frames one synchronous request and waits for its completion,
// returning a copy of the response payload; an error frame comes back as
// the error.
func (c *BinaryClient) do(op uint8, payload []byte) ([]byte, error) {
	type result struct {
		payload []byte
		err     error
	}
	ch := make(chan result, 1)
	c.call(c.nextID.Add(1), op, 0, payload, func(h wire.Header, p []byte, err error) {
		if err == nil && h.Flags&wire.FlagError != 0 {
			err = errorFrame(p)
		}
		ch <- result{append([]byte(nil), p...), err}
	})
	res := <-ch
	return res.payload, res.err
}

// Put stores payload bytes under block and waits for the outcome: QoS
// admission prices the write and, when it admits, the server lands the
// bytes durably (group-commit fsynced) on every available replica before
// answering. Admission may reject the write instead — that comes back as
// a nil error with r.Rejected set and nothing stored, so callers must
// check r.Rejected before treating the payload as durable. Requires a
// server running with a data store (-backend pack).
func (c *BinaryClient) Put(block int64, payload []byte) (ReadResult, error) {
	res := <-c.PutAsync(block, payload)
	return res.ReadResult, res.Err
}

// PutAsync enqueues a pipelined payload write; the returned channel
// (capacity 1) delivers exactly one completion. A completion with a nil
// Err and Rejected unset means the payload is durable per the Put
// contract; a rejected admission also completes with a nil Err, so check
// Rejected before counting the write as stored.
func (c *BinaryClient) PutAsync(block int64, payload []byte) <-chan SubmitResult {
	buf := wire.GetBuffer()
	p := wire.AppendPutReq((*buf)[:0], block, payload)
	*buf = p[:0]
	ch := c.submitAsync(wire.OpPut, 0, p)
	wire.PutBuffer(buf)
	return ch
}

// Get fetches block's payload bytes and waits for the outcome. data is
// nil when admission rejected the request (r.Rejected); a missing block
// or an all-replicas-faulted read comes back as an error.
func (c *BinaryClient) Get(block int64) (r ReadResult, data []byte, err error) {
	resp, err := c.do(wire.OpGet, wire.AppendBlock(nil, block))
	if err != nil {
		return ReadResult{}, nil, err
	}
	o, data, perr := wire.ParseGetResp(resp)
	if perr != nil {
		return ReadResult{}, nil, perr
	}
	r = fromWireOutcome(o)
	if r.Rejected {
		return r, nil, nil
	}
	// data aliases the response copy `do` made for us — safe to hand out.
	return r, data, nil
}

// Read submits a block read and waits for the outcome.
func (c *BinaryClient) Read(block int64) (ReadResult, error) {
	res := <-c.SubmitAsync(block)
	return res.ReadResult, res.Err
}

// Write submits a block write and waits for the outcome.
func (c *BinaryClient) Write(block int64) (ReadResult, error) {
	res := <-c.submitBlock(wire.OpWrite, block, 0)
	return res.ReadResult, res.Err
}

// Batch submits simultaneous reads for joint admission and returns the
// outcomes in input order.
func (c *BinaryClient) Batch(blocks []int64) ([]ReadResult, error) {
	payload, err := c.do(wire.OpBatch, wire.AppendBatchReq(nil, blocks))
	if err != nil {
		return nil, err
	}
	outs, err := wire.ParseBatchResp(payload, nil)
	if err != nil {
		return nil, err
	}
	rs := make([]ReadResult, len(outs))
	for i, o := range outs {
		rs[i] = fromWireOutcome(o)
	}
	return rs, nil
}

// Map asks where a data block lives.
func (c *BinaryClient) Map(block int64) (designBlock int, devices []int, err error) {
	payload, err := c.do(wire.OpMap, wire.AppendBlock(nil, block))
	if err != nil {
		return 0, nil, err
	}
	m, err := wire.ParseMapResp(payload)
	if err != nil {
		return 0, nil, err
	}
	devices = make([]int, len(m.Devices))
	for i, d := range m.Devices {
		devices[i] = int(d)
	}
	return int(m.DesignBlock), devices, nil
}

// Stats fetches the server counters.
func (c *BinaryClient) Stats() (requests, delayed, rejected int64, avgDelayMS float64, err error) {
	payload, err := c.do(wire.OpStats, nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	st, err := wire.ParseStats(payload)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return st.Requests, st.Delayed, st.Rejected, st.AvgDelayMS, nil
}

// Metrics fetches the Prometheus-style exposition text.
func (c *BinaryClient) Metrics() (string, error) {
	payload, err := c.do(wire.OpMetrics, nil)
	if err != nil {
		return "", err
	}
	return string(payload), nil
}

// Fail takes a device out of service (admin).
func (c *BinaryClient) Fail(device int) (state string, effectiveS int, err error) {
	return c.admin(wire.OpFail, device)
}

// Recover brings a failed device back (admin).
func (c *BinaryClient) Recover(device int) (state string, effectiveS int, err error) {
	return c.admin(wire.OpRecover, device)
}

func (c *BinaryClient) admin(op uint8, device int) (string, int, error) {
	if device < 0 {
		return "", 0, fmt.Errorf("qosnet: bad device %d", device)
	}
	payload, err := c.do(op, wire.AppendDevice(nil, uint32(device)))
	if err != nil {
		return "", 0, err
	}
	a, err := wire.ParseAdminResp(payload)
	if err != nil {
		return "", 0, err
	}
	return a.State, int(a.EffectiveS), nil
}

// Health fetches the device-health report.
func (c *BinaryClient) Health() (wire.Health, error) {
	payload, err := c.do(wire.OpHealth, nil)
	if err != nil {
		return wire.Health{}, err
	}
	return wire.ParseHealth(payload)
}

// ShardStats fetches the per-shard admission gauges.
func (c *BinaryClient) ShardStats() ([]wire.ShardGauge, error) {
	payload, err := c.do(wire.OpShardStats, nil)
	if err != nil {
		return nil, err
	}
	return wire.ParseShardStats(payload)
}

// TenantHello resolves tenant names to their stable 1-based indices, in
// request order; an unknown name resolves to 0. Indices — not names — tag
// the per-request hot path (ReadTenant), so clients hello once per
// connection and cache the mapping.
func (c *BinaryClient) TenantHello(names []string) ([]int32, error) {
	payload, err := c.do(wire.OpTenantHello, wire.AppendTenantHelloReq(nil, names))
	if err != nil {
		return nil, err
	}
	idx, perr := wire.ParseTenantHelloResp(payload)
	if perr != nil {
		return nil, perr
	}
	if len(idx) != len(names) {
		return nil, fmt.Errorf("qosnet: tenant hello answered %d of %d names", len(idx), len(names))
	}
	return idx, nil
}

// TenantSet installs or updates one tenant's QoS policy live (admin) and
// returns its stable 1-based index.
func (c *BinaryClient) TenantSet(spec wire.TenantSpec) (int32, error) {
	payload, err := c.do(wire.OpTenant, wire.AppendTenantReq(nil, wire.TenantCmdSet, spec))
	if err != nil {
		return 0, err
	}
	if len(payload) != 4 {
		return 0, fmt.Errorf("qosnet: bad TENANT SET response (%d bytes)", len(payload))
	}
	idx := int32(binary.LittleEndian.Uint32(payload))
	if idx < 1 {
		return 0, fmt.Errorf("qosnet: bad TENANT SET index %d", idx)
	}
	return idx, nil
}

// TenantGet fetches one tenant's policy and cross-shard gauges (admin).
func (c *BinaryClient) TenantGet(name string) (wire.TenantEntry, error) {
	payload, err := c.do(wire.OpTenant, wire.AppendTenantReq(nil, wire.TenantCmdGet, wire.TenantSpec{Name: name}))
	if err != nil {
		return wire.TenantEntry{}, err
	}
	entries, perr := wire.ParseTenantStats(payload)
	if perr != nil {
		return wire.TenantEntry{}, perr
	}
	if len(entries) != 1 {
		return wire.TenantEntry{}, fmt.Errorf("qosnet: TENANT GET answered %d entries", len(entries))
	}
	return entries[0], nil
}

// TenantDel deactivates a tenant (admin); its index stays reserved.
func (c *BinaryClient) TenantDel(name string) error {
	_, err := c.do(wire.OpTenant, wire.AppendTenantReq(nil, wire.TenantCmdDel, wire.TenantSpec{Name: name}))
	return err
}

// TenantStats fetches every active tenant's policy and gauges.
func (c *BinaryClient) TenantStats() ([]wire.TenantEntry, error) {
	payload, err := c.do(wire.OpTenantStats, nil)
	if err != nil {
		return nil, err
	}
	return wire.ParseTenantStats(payload)
}
