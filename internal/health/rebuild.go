package health

// The background rebuild scheduler. Two kinds of repair work flow through
// one queue and one token bucket:
//
//   - re-protect (device Failed): every bucket with a replica on the dead
//     module is copied from a surviving replica onto another survivor, so
//     the array regains c-way redundancy while degraded;
//   - resilver (device Rebuilding): the replacement module is repopulated
//     bucket by bucket before it rejoins the retrieval mask.
//
// The rate-limit invariant: in any interval of length t the scheduler
// performs at most rebuildBurst + RatePerSec·t/1000 bucket copies.
// Foreground QoS traffic therefore loses at most that much device time to
// repair I/O per interval, which keeps the degraded guarantee S' honest —
// rebuild can be made arbitrarily polite by lowering the rate, at the cost
// of a longer repair window (the classic MTTR-vs-interference trade-off).

// RebuildConfig configures the background re-replication scheduler.
type RebuildConfig struct {
	// RatePerSec is the sustained bucket-copy rate; 0 disables rebuild.
	RatePerSec float64
	// BucketsOf returns the design buckets holding a replica on a device;
	// required when RatePerSec > 0. The slice is read once at enqueue.
	BucketsOf func(dev int) []int
	// Copy, if set, performs one bucket copy (e.g. issues the simulated
	// read+write, or moves real payloads). Called from Step with the
	// transition lock released, so it may perform blocking I/O without
	// stalling detector transitions or mask reads.
	Copy func(dev, bucket int, kind RebuildKind)
}

// rebuildBurst is the token-bucket depth: the most copies one Step makes
// after an idle stretch.
const rebuildBurst = 1

// RebuildKind distinguishes the two repair flows.
type RebuildKind int

const (
	// Reprotect copies a failed device's buckets onto survivors.
	Reprotect RebuildKind = iota
	// Resilver copies buckets back onto a recovered device.
	Resilver
)

type rebuildJob struct {
	dev    int
	bucket int
	kind   RebuildKind
}

// rebuilder is the token-bucket work queue. All methods are called with
// the Monitor's mutex held.
type rebuilder struct {
	cfg    RebuildConfig
	queue  []rebuildJob
	tokens float64
	lastMS float64
	seeded bool
	done   int64
}

func newRebuilder(cfg RebuildConfig) *rebuilder {
	return &rebuilder{cfg: cfg, tokens: rebuildBurst}
}

// enqueue queues one repair flow for a device.
func (r *rebuilder) enqueue(dev int, kind RebuildKind) {
	if r.cfg.BucketsOf == nil {
		return
	}
	for _, b := range r.cfg.BucketsOf(dev) {
		r.queue = append(r.queue, rebuildJob{dev: dev, bucket: b, kind: kind})
	}
}

// cancel drops all queued work for a device (it failed again mid-resilver,
// or came back without needing repair).
func (r *rebuilder) cancel(dev int) {
	kept := r.queue[:0]
	for _, j := range r.queue {
		if j.dev != dev {
			kept = append(kept, j)
		}
	}
	r.queue = kept
}

// take refills tokens up to nowMS and dequeues whole-token jobs in FIFO
// order, returning them together with the devices whose resilver work
// drained. It does not invoke Copy — the Monitor runs the copies after
// releasing its mutex, so a slow copy (real payload I/O) cannot stall
// transitions.
func (r *rebuilder) take(nowMS float64) (jobs []rebuildJob, drained []int) {
	if !r.seeded {
		r.seeded = true
		r.lastMS = nowMS
	}
	if dt := nowMS - r.lastMS; dt > 0 {
		r.tokens += r.cfg.RatePerSec * dt / 1000
		r.tokens = min(r.tokens, rebuildBurst)
	}
	r.lastMS = nowMS
	for len(r.queue) > 0 && r.tokens >= 1 {
		j := r.queue[0]
		copy(r.queue, r.queue[1:])
		r.queue = r.queue[:len(r.queue)-1]
		r.tokens--
		r.done++
		jobs = append(jobs, j)
		if j.kind == Resilver && !r.hasWork(j.dev) {
			drained = append(drained, j.dev)
		}
	}
	return jobs, drained
}

// hasWork reports whether any queued job remains for a device.
func (r *rebuilder) hasWork(dev int) bool {
	for _, j := range r.queue {
		if j.dev == dev {
			return true
		}
	}
	return false
}
