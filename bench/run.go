package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/qosnet"
	"flashqos/internal/wire"
)

// config is one invocation's settings.
type config struct {
	root    string // checkout root
	binDir  string // built daemons
	tmpDir  string // parent of every temp dir of the run
	outDir  string // BENCH_*.json and trace_*.json
	seed    int64
	seconds float64 // measuring time of one run
	conns   int     // load-generator connections
	procs   *procs
}

// Set-up is timed at least setupRepeats times per run and the median
// reported: one start of a daemon is too noisy to gate on. A set-up that
// takes milliseconds is repeated further, up to setupMaxRepeats times or
// setupCheapS seconds in all.
const (
	setupRepeats    = 3
	setupMaxRepeats = 15
	setupCheapS     = 1.0
)

// preloadConns is how many connections the pack preload writes over. The
// server applies one connection's PUTs one after another, each waiting
// out its group commits, so the preload (set-up, not load) is spread
// wider than the measured traffic's connections.
const preloadConns = 16

// env is one workload's running daemons.
type env struct {
	w       workload
	cfg     *config
	qosds   []*child
	proxy   *child
	front   string // address the load generator dials
	dataDir string
	setupS  float64
	startS  float64 // slowest child's exec → listening
}

// setUp starts the workload's daemons, waits until each listens, and
// preloads the pack working set over the wire.
func setUp(cfg *config, w workload) (*env, error) {
	e := &env{w: w, cfg: cfg}
	t0 := time.Now()
	if w.pack {
		dir, err := cfg.procs.tempDir(cfg.tmpDir, "data-")
		if err != nil {
			return nil, err
		}
		e.dataDir = dir
	}
	n := 1
	if w.backends > 0 {
		n = w.backends
	}
	var addrs []string
	for i := 0; i < n; i++ {
		c, err := cfg.procs.start(fmt.Sprintf("qosd[%d]", i), filepath.Join(cfg.binDir, "qosd"), w.qosdArgs(e.dataDir)...)
		if err != nil {
			return nil, err
		}
		e.qosds = append(e.qosds, c)
		addrs = append(addrs, c.addr)
		if c.startS > e.startS {
			e.startS = c.startS
		}
	}
	e.front = addrs[0]
	if w.backends > 0 {
		c, err := cfg.procs.start("qosproxy", filepath.Join(cfg.binDir, "qosproxy"),
			"-listen", "127.0.0.1:0", "-backends", strings.Join(addrs, ","))
		if err != nil {
			return nil, err
		}
		e.proxy, e.front = c, c.addr
	}
	if w.pack {
		if err := preload(e.front); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	e.setupS = time.Since(t0).Seconds()
	return e, nil
}

// tearDown kills the daemons and removes the data dir.
func (e *env) tearDown() {
	for _, c := range e.children() {
		c.kill()
	}
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

func (e *env) children() []*child {
	if e.proxy != nil {
		return append(append([]*child(nil), e.qosds...), e.proxy)
	}
	return e.qosds
}

// alive fails when any daemon has exited.
func (e *env) alive() error {
	for _, c := range e.children() {
		if err := c.alive(); err != nil {
			return err
		}
	}
	return nil
}

// eachBlock runs fn(client, block) for every block of the pack working
// set, spread over conns connections.
func eachBlock(addr string, conns int, fn func(c *qosnet.BinaryClient, block int64) error) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := qosnet.DialBinary(addr)
			if err != nil {
				errs[k] = err
				return
			}
			defer c.Close()
			for b := int64(k); b < packBlocks; b += int64(conns) {
				if err := fn(c, b); err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preload stores version 1 of every block.
func preload(addr string) error {
	return eachBlock(addr, preloadConns, func(c *qosnet.BinaryClient, b int64) error {
		buf := make([]byte, payloadSize)
		fillPayload(buf, b, 1)
		r, err := c.Put(b, buf)
		if err == nil && r.Rejected {
			err = fmt.Errorf("PUT of block %d refused", b)
		}
		return err
	})
}

// crashAndReadBack is the durability check of a pack run: SIGKILL the
// daemon, start a new one on the same directory, and read every block
// back — each must verify and carry at least the last version that was
// acknowledged. It returns the restart time (exec → listening, i.e. the
// recovery scan as the operator waits for it). The kill leaves the OS
// page cache intact; discarding un-fsynced bytes needs a fault-injecting
// file layer the repo does not have yet.
func (e *env) crashAndReadBack(g *loadgen) (restartS float64, err error) {
	e.qosds[0].kill()
	c, err := e.cfg.procs.start("qosd[restart]", filepath.Join(e.cfg.binDir, "qosd"), e.w.qosdArgs(e.dataDir)...)
	if err != nil {
		return 0, err
	}
	e.qosds[0] = c
	err = eachBlock(c.addr, e.cfg.conns, func(bc *qosnet.BinaryClient, b int64) error {
		r, data, err := bc.Get(b)
		if err != nil {
			return fmt.Errorf("read-back of block %d after kill: %w", b, err)
		}
		if r.Rejected {
			return fmt.Errorf("read-back of block %d refused", b)
		}
		v, err := checkPayload(data, b)
		if err != nil {
			return fmt.Errorf("read-back after kill: %w", err)
		}
		if acked := g.lastAcked[b].Load(); v < acked {
			return fmt.Errorf("block %d: version %d acknowledged before the kill, %d read after it", b, acked, v)
		}
		return nil
	})
	return c.startS, err
}

// live is one dialled workload: the load generator plus an admin
// connection for the daemons' stats verbs.
type live struct {
	e      *env
	g      *loadgen
	admin  *qosnet.BinaryClient
	ops    []op
	stats0 serverStats // the server's counters before the first frame was sent
}

// serverStats is one STATS reply, with the delay mean turned back into the
// sum it was computed from so that two replies can be subtracted.
type serverStats struct {
	reqs, delayed, rejected int64
	delaySumMS              float64
}

func (l *live) stats() (serverStats, error) {
	reqs, delayed, rejected, avg, err := l.admin.Stats()
	if err != nil {
		return serverStats{}, fmt.Errorf("STATS: %w", err)
	}
	return serverStats{reqs, delayed, rejected, avg * float64(delayed)}, nil
}

func goLive(e *env, ops []op, clk clock) (*live, error) {
	admin, err := qosnet.DialBinary(e.front)
	if err != nil {
		return nil, err
	}
	mem := core.MemBackend{} // every backend prices from these defaults
	devices := designN * e.w.shards
	if e.w.backends > 0 {
		devices *= e.w.backends
	}
	g, err := dialLoadgen(e.w, e.front, e.cfg.conns, devices, clk, mem.ReadLatencyMS(), mem.WriteLatencyMS())
	if err != nil {
		admin.Close()
		return nil, err
	}
	if e.w.pack {
		for b := range g.nextVersion {
			g.nextVersion[b] = 1
			g.lastAcked[b].Store(1)
		}
	}
	l := &live{e: e, g: g, admin: admin, ops: ops}
	if len(e.w.tenants) > 0 {
		names := make([]string, len(e.w.tenants))
		for i, t := range e.w.tenants {
			names[i] = t.Name
		}
		idx, err := admin.TenantHello(names)
		if err != nil {
			l.close()
			return nil, fmt.Errorf("tenant hello: %w", err)
		}
		for i, ix := range idx {
			if ix != int32(i)+1 {
				l.close()
				return nil, fmt.Errorf("tenant %s resolved to index %d, the stream tags it %d", names[i], ix, i+1)
			}
		}
	}
	if l.stats0, err = l.stats(); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *live) close() {
	l.g.close()
	l.admin.Close()
}

// checkCounters compares the server's requests_total with the frames the
// generator has sent; both are read with nothing in flight.
func (l *live) checkCounters() error {
	st, err := l.stats()
	if err != nil {
		return err
	}
	if got, want := st.reqs-l.stats0.reqs, int64(l.g.sent()); got != want {
		return fmt.Errorf("server counted %d requests, the generator sent %d frames", got, want)
	}
	return nil
}

// tally closes the books on a live run: the counter check, what was
// attempted, and what failed outright (refusals are valid replies and are
// not failures). It returns the readers' merged counters.
func (l *live) tally(r *result, lost int) counters {
	if err := l.checkCounters(); err != nil {
		r.fail("%v", err)
	}
	t := l.g.totals()
	r.Attempted = int64(l.g.sent())
	r.Failed = t.errFrames + t.mismatched + t.stray + int64(lost)
	if r.Failed > 0 {
		r.fail("%d error frames, %d payload or reply mismatches, %d stray replies, %d lost; first: %s",
			t.errFrames, t.mismatched, t.stray, lost, t.firstErr)
	}
	return t
}

// pacedRun is one open-loop phase with its warm-up and the windows the
// host took the cores away in cut off.
type pacedRun struct {
	samples []sample // warm-up and disturbed windows excluded
	sent    int      // requests sent, warm-up included
	lost    int
	steal   stealUse // of the windows after the warm-up
}

// runPaced drives the paced phase for phase, from op index 0.
func (l *live) runPaced(phase time.Duration, spans *spanLog) (pacedRun, error) {
	dues := genDues(l.e.cfg.seed, l.e.w.rate, phase)
	ss, lost, sw, err := l.g.paced(l.ops, dues, spans)
	if err != nil {
		return pacedRun{}, err
	}
	if err := l.e.alive(); err != nil {
		return pacedRun{}, err
	}
	// Cut the warm-up off at the first steal reading past it, so that the
	// windows left are whole.
	warm := int64(phase / 6)
	first := 0
	for first < len(dues) && dues[first] < warm {
		first++
	}
	if first == len(dues) {
		return pacedRun{}, fmt.Errorf("paced phase of %v holds no request past its warm-up", phase)
	}
	for len(sw.ticks) > 2 && sw.ticks[1].t <= ss[first].due {
		sw.ticks = sw.ticks[1:]
	}
	keep, use := sw.quiet()
	pr := pacedRun{sent: len(ss), lost: lost, steal: use}
	for i := first; i < len(ss); i++ {
		if wi := sw.window(ss[i].due); wi >= 0 && keep[wi] {
			pr.samples = append(pr.samples, ss[i])
		}
	}
	return pr, nil
}

// maxLateP99US is the generator lateness (send − due, p99) above which a
// paced phase says more about the machine than about the server.
const maxLateP99US = 1000

// noteLateness flags a paced phase whose generator ran late. The phase is
// not repeated: a second phase would write a second phase's worth of PUTs
// (moving space_amp) and double the run time, and the medians the bounds
// are set on do not move with a stall of a few hundred requests.
func (r *result) noteLateness(lateP99US float64) {
	if lateP99US > maxLateP99US {
		r.Notes = append(r.Notes, fmt.Sprintf("invalid: generator p99 lateness %.0f us > %d; the machine stalled, read the latencies with care", lateP99US, maxLateP99US))
	}
}

// noteSteal records how much of a phase's CPU time the host took away and
// how many of its windows the medians stand on.
func (r *result) noteSteal(phase string, u stealUse) {
	r.Info[phase+".steal_frac"] = u.total
	r.Info[phase+".windows"] = float64(u.windows)
	r.Info[phase+".quiet_windows"] = float64(u.quiet)
	if !u.filtered {
		r.Notes = append(r.Notes, fmt.Sprintf("disturbed: the host took more than %g of the CPU time in all but %d of the %d windows of the %s phase; it is measured whole",
			maxStealShare, u.quiet, u.windows, phase))
	}
}

// shardImbalance is max/mean of the per-shard request counters.
func shardImbalance(gs []wire.ShardGauge) float64 {
	var reqs []float64
	for _, g := range gs {
		reqs = append(reqs, float64(g.Requests))
	}
	return maxOverMean(reqs)
}

func maxOverMean(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	mx := xs[0]
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	return mx / m
}
