package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flashqos/internal/wire"
)

// ringSize bounds the requests one connection may have in flight. The
// paced phase is open loop, so a stalled server lets the backlog grow;
// past this many the run is abandoned rather than silently throttled.
const ringSize = 1 << 16

// clock is the run's monotonic time base, in nanoseconds.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// slot tracks one in-flight request of a connection, indexed by request
// ID. The sender fills it and publishes with state; the reader consumes
// it when the reply with that ID arrives.
type slot struct {
	state   atomic.Uint32 // 0 free, 1 awaiting its reply
	id      uint64
	o       op
	version uint64 // PUT: the version written; GET: the lowest acceptable one
	rec     int32  // index into loadgen.samples, -1 outside the paced phase
	parent  uint64 // traced runs: the pacer batch that sent it
}

// counters is what one connection's reader learned from its replies. The
// reader owns it; others read it only once the connection is quiescent.
type counters struct {
	admitted, rejected, overLimit, delayed int64
	errFrames, mismatched, stray           int64
	violations                             int64 // admitted with RespMS > M × service time
	fills                                  int64 // socket reads that delivered ≥1 reply
	perDevice                              []int64
	perTenant                              []int64 // admitted, by tenant tag
	firstErr                               string
}

func (c *counters) note(format string, a ...any) {
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, a...)
	}
}

func (c *counters) add(o *counters) {
	c.admitted += o.admitted
	c.rejected += o.rejected
	c.overLimit += o.overLimit
	c.delayed += o.delayed
	c.errFrames += o.errFrames
	c.mismatched += o.mismatched
	c.stray += o.stray
	c.violations += o.violations
	c.fills += o.fills
	for i, v := range o.perDevice {
		c.perDevice[i] += v
	}
	for i, v := range o.perTenant {
		c.perTenant[i] += v
	}
	if c.firstErr == "" {
		c.firstErr = o.firstErr
	}
}

// lconn is one load-generator connection: a sender (the pacer thread or a
// closed-loop goroutine) and one reader goroutine.
type lconn struct {
	g    *loadgen
	c    net.Conn
	rd   *wire.Reader
	ring []slot

	sent    uint64        // next request ID; sender-owned
	pending []byte        // encoded frames not yet written; sender-owned
	replies atomic.Uint64 // replies consumed; reader-owned, read by everyone
	wake    chan struct{} // reader → closed-loop sender: credit freed

	cnt     counters
	readErr error
	done    chan struct{} // reader exited
}

// loadgen drives one front address (a qosd or a qosproxy) over conns
// connections from this one process.
type loadgen struct {
	w     workload
	clk   clock
	conns []*lconn

	readMS, writeMS float64 // modelled service times, for the priced bound

	samples []sample // paced phase, by op index
	spans   *spanLog // non-nil in a traced paced phase

	// Pack workloads: per-block versions. nextVersion is touched only by
	// the block's own connection's sender; lastAcked is stored by that
	// connection's reader and loaded by its sender.
	nextVersion []uint64
	lastAcked   []atomic.Uint64
}

func dialLoadgen(w workload, addr string, conns, devices int, clk clock, readMS, writeMS float64) (*loadgen, error) {
	g := &loadgen{w: w, clk: clk, readMS: readMS, writeMS: writeMS}
	if w.pack {
		g.nextVersion = make([]uint64, packBlocks)
		g.lastAcked = make([]atomic.Uint64, packBlocks)
	}
	for i := 0; i < conns; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			g.close()
			return nil, err
		}
		c := &lconn{
			g: g, c: nc,
			rd:   wire.NewReader(bufio.NewReaderSize(nc, 64<<10), 0),
			ring: make([]slot, ringSize),
			wake: make(chan struct{}, 1),
			done: make(chan struct{}),
			cnt: counters{
				perDevice: make([]int64, devices),
				perTenant: make([]int64, len(w.tenants)+1),
			},
		}
		g.conns = append(g.conns, c)
		go c.readLoop()
	}
	return g, nil
}

// close shuts the connections and waits for the readers.
func (g *loadgen) close() {
	for _, c := range g.conns {
		c.c.Close()
		<-c.done
	}
}

// readLoop consumes replies until the connection closes. One timestamp is
// taken per socket fill: the frames of one fill arrived together.
func (c *lconn) readLoop() {
	defer close(c.done)
	var now int64
	fresh := true
	for {
		h, payload, err := c.rd.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.readErr = err
			}
			return
		}
		if fresh {
			now = c.g.clk.now()
			c.cnt.fills++
		}
		fresh = !c.rd.More()
		c.onReply(h, payload, now)
	}
}

// onReply checks one reply against the request that carried its ID.
func (c *lconn) onReply(h wire.Header, payload []byte, now int64) {
	g := c.g
	s := &c.ring[h.ID%ringSize]
	if s.state.Load() != 1 || s.id != h.ID {
		c.cnt.stray++
		c.cnt.note("reply for id %d matches no request in flight", h.ID)
		return
	}
	ok, priced := false, 0.0
	switch {
	case h.Flags&wire.FlagError != 0:
		c.cnt.errFrames++
		c.cnt.note("error frame for block %d: %s", s.o.block, payload)
	case h.Opcode != requestOpcode(g.w, s.o):
		c.cnt.mismatched++
		c.cnt.note("reply opcode %#x for a %#x request", h.Opcode, requestOpcode(g.w, s.o))
	default:
		out, rest, err := wire.ParseOutcome(payload)
		switch {
		case err != nil:
			c.cnt.mismatched++
			c.cnt.note("block %d: %v", s.o.block, err)
		case out.Rejected():
			c.cnt.rejected++
			if out.OverLimit() {
				c.cnt.overLimit++
			}
		default:
			ok = c.checkAdmitted(s, out, rest)
			priced = out.DelayMS + out.RespMS
		}
	}
	if s.rec >= 0 {
		smp := &g.samples[s.rec]
		smp.done, smp.ok, smp.pricedMS = now, ok, priced
		if g.spans != nil {
			g.spans.add(span{Name: "loadgen.request", ID: h.ID + 1<<40, Parent: s.parent, Start: smp.send, End: now, Count: 1})
		}
	}
	s.state.Store(0)
	c.replies.Add(1)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// checkAdmitted verifies an admitted reply and counts what it says.
func (c *lconn) checkAdmitted(s *slot, out wire.Outcome, rest []byte) bool {
	g := c.g
	if int(out.Device) < 0 || int(out.Device) >= len(c.cnt.perDevice) {
		c.cnt.mismatched++
		c.cnt.note("block %d served by device %d, outside the array", s.o.block, out.Device)
		return false
	}
	c.cnt.admitted++
	c.cnt.perDevice[out.Device]++
	c.cnt.perTenant[s.o.tenant]++
	if out.Delayed() {
		c.cnt.delayed++
	}
	svcMS := g.readMS
	if s.o.write {
		svcMS = g.writeMS
	}
	if violates(out.RespMS, svcMS) {
		c.cnt.violations++
	}
	switch {
	case g.w.pack && s.o.write:
		if len(rest) != 0 {
			c.cnt.mismatched++
			return false
		}
		g.lastAcked[s.o.block].Store(s.version)
	case g.w.pack:
		v, err := checkPayload(rest, s.o.block)
		if err == nil && v < s.version {
			err = fmt.Errorf("block %d: read version %d after version %d was acknowledged", s.o.block, v, s.version)
		}
		if err != nil {
			c.cnt.mismatched++
			c.cnt.note("%v", err)
			return false
		}
	case len(rest) != 0:
		c.cnt.mismatched++
		c.cnt.note("block %d: %d trailing bytes after the outcome", s.o.block, len(rest))
		return false
	}
	return true
}

// enqueue appends o's frame to the connection's pending bytes and
// registers it in flight. scratch holds a PUT's payload while it is
// encoded.
func (c *lconn) enqueue(o op, rec int32, parent uint64, scratch []byte) error {
	g := c.g
	id := c.sent
	s := &c.ring[id%ringSize]
	if s.state.Load() != 0 {
		return fmt.Errorf("%d requests in flight on one connection: the server is not keeping up", ringSize)
	}
	s.id, s.o, s.rec, s.parent, s.version = id, o, rec, parent, 0
	var payload []byte
	if g.w.pack {
		if o.write {
			g.nextVersion[o.block]++
			s.version = g.nextVersion[o.block]
			fillPayload(scratch, o.block, s.version)
			payload = scratch
		} else {
			s.version = g.lastAcked[o.block].Load()
		}
	}
	c.pending = appendRequest(c.pending, g.w, o, id, payload)
	s.state.Store(1)
	c.sent++
	return nil
}

func (c *lconn) flush() error {
	if len(c.pending) == 0 {
		return nil
	}
	_, err := c.c.Write(c.pending)
	c.pending = c.pending[:0]
	return err
}

// inFlight is how many requests of this connection await a reply.
func (c *lconn) inFlight() int { return int(c.sent - c.replies.Load()) }

// drain waits until every request sent has been answered, or the timeout
// passes; what is still out then is lost.
func (g *loadgen) drain(timeout time.Duration) (lost int) {
	deadline := time.Now().Add(timeout)
	for {
		lost = 0
		for _, c := range g.conns {
			lost += c.inFlight()
		}
		if lost == 0 || time.Now().After(deadline) {
			return lost
		}
		time.Sleep(time.Millisecond)
	}
}

// totals merges the readers' counters. Call only after drain.
func (g *loadgen) totals() counters {
	t := counters{
		perDevice: make([]int64, len(g.conns[0].cnt.perDevice)),
		perTenant: make([]int64, len(g.conns[0].cnt.perTenant)),
	}
	for _, c := range g.conns {
		t.add(&c.cnt)
		if c.readErr != nil && t.firstErr == "" {
			t.firstErr = "connection read: " + c.readErr.Error()
		}
	}
	return t
}

func (g *loadgen) sent() uint64 {
	var n uint64
	for _, c := range g.conns {
		n += c.sent
	}
	return n
}

func (g *loadgen) replied() uint64 {
	var n uint64
	for _, c := range g.conns {
		n += c.replies.Load()
	}
	return n
}

// prSetTimerslack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// sleepUntil blocks the calling OS thread in nanosleep(2) until the run
// clock reads target. time.Sleep goes through the runtime's timer heap and
// overshoots a 100 µs gap by about a millisecond; a busy-wait would take a
// core from the daemon under test.
func sleepUntil(clk clock, target int64) {
	for {
		d := target - clk.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil) // EINTR (runtime preemption signals): loop and re-aim
	}
}

// paced runs the open-loop phase: ops[i] is due dues[i] ns after the
// phase starts and is sent then whether or not earlier requests have been
// answered. One OS-locked thread sleeps to each due time and writes the
// frames straight to the sockets. It returns the samples (one per op), how
// many requests never got a reply, and the phase's steal windows.
func (g *loadgen) paced(ops []op, dues []int64, spans *spanLog) ([]sample, int, stealWindows, error) {
	g.samples = make([]sample, len(dues))
	g.spans = spans
	steal := startStealLog(g.clk, pacedSlice)
	errc := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// The default 50 µs timer slack would be added to every gap.
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
		errc <- g.pace(ops, dues)
	}()
	err := <-errc
	lost := 0
	if err == nil {
		limit := g.w.writeLimit
		if g.w.readLimit > limit {
			limit = g.w.readLimit
		}
		lost = g.drain(2*time.Second + 10*limit)
	}
	g.spans = nil
	sw, serr := steal.finish(g.clk)
	if err == nil {
		err = serr
	}
	return g.samples, lost, sw, err
}

func (g *loadgen) pace(ops []op, dues []int64) error {
	scratch := make([]byte, payloadSize)
	start := g.clk.now() + int64(time.Millisecond)
	for i := 0; i < len(dues); {
		sleepUntil(g.clk, start+dues[i])
		now := g.clk.now()
		var batch uint64
		if g.spans != nil {
			batch = g.spans.newID()
		}
		first := i
		for ; i < len(dues) && start+dues[i] <= now; i++ {
			o := ops[i%len(ops)]
			g.samples[i] = sample{due: start + dues[i], send: now, write: o.write}
			c := g.conns[connOf(g.w, o, i, len(g.conns))]
			if err := c.enqueue(o, int32(i), batch, scratch); err != nil {
				return err
			}
		}
		for _, c := range g.conns {
			if err := c.flush(); err != nil {
				return fmt.Errorf("paced send: %w", err)
			}
		}
		if g.spans != nil {
			g.spans.add(span{Name: "loadgen.batch", ID: batch, Start: now, End: g.clk.now(), Count: i - first})
		}
	}
	return nil
}

// pacedSlice and satSlice are the windows the phases are cut into (see
// steal.go). The saturated phase's throughput is the median over its
// windows: the sandbox's cores also slow down for a second or two at a
// time without any steal being counted, and the median of many short
// windows sits where the machine mostly ran, where a mean over the phase
// moves with every such episode.
const (
	pacedSlice = 500 * time.Millisecond
	satSlice   = 250 * time.Millisecond
)

// satResult is what the closed-loop phase measured.
type satResult struct {
	opsPerSec float64 // replies per second: median over the quiet satSlice windows
	replies   uint64  // replies inside the measured window
	lost      int
	steal     stealUse
}

// saturated runs the closed-loop phase: every connection keeps depth
// requests in flight for dur, walking the op stream from index from. The
// first warm of it is not counted.
func (g *loadgen) saturated(ops []op, from int, dur, warm time.Duration) (satResult, error) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, len(g.conns)+1)
	for ci, c := range g.conns {
		wg.Add(1)
		go func(ci int, c *lconn) {
			defer wg.Done()
			errs[ci] = c.closedLoop(ops, from, ci, &stop)
		}(ci, c)
	}
	time.Sleep(warm)
	var sw stealWindows
	var counts []uint64
	for {
		t, cpus, err := readSteal(g.clk)
		if err != nil {
			errs[len(g.conns)] = err
			break
		}
		sw.ticks, sw.cpus = append(sw.ticks, t), cpus
		counts = append(counts, g.replied())
		if t.t-sw.ticks[0].t >= int64(dur-warm) {
			break
		}
		time.Sleep(satSlice)
	}
	stop.Store(true)
	for _, c := range g.conns {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return satResult{}, err
		}
	}
	keep, use := sw.quiet()
	var rates []float64
	for i := range keep {
		if keep[i] {
			rates = append(rates, float64(counts[i+1]-counts[i])/(float64(sw.ticks[i+1].t-sw.ticks[i].t)/1e9))
		}
	}
	res := satResult{
		opsPerSec: median(rates),
		replies:   counts[len(counts)-1] - counts[0],
		lost:      g.drain(5 * time.Second),
		steal:     use,
	}
	return res, nil
}

// closedLoop is one connection's saturated-phase sender: top the pipeline
// up to depth, write, wait for the reader to free credit.
func (c *lconn) closedLoop(ops []op, from, ci int, stop *atomic.Bool) error {
	g := c.g
	scratch := make([]byte, payloadSize)
	i := from
	for !stop.Load() {
		free := g.w.depth - c.inFlight()
		if free <= 0 {
			select {
			case <-c.wake:
			case <-c.done:
				return fmt.Errorf("saturated phase: connection closed: %v", c.readErr)
			}
			continue
		}
		for free > 0 {
			o := ops[i%len(ops)]
			if connOf(g.w, o, i, len(g.conns)) == ci {
				if err := c.enqueue(o, -1, 0, scratch); err != nil {
					return err
				}
				free--
			}
			i++
		}
		if err := c.flush(); err != nil {
			return fmt.Errorf("saturated send: %w", err)
		}
	}
	return nil
}
