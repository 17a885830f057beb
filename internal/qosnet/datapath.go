package qosnet

import (
	"errors"
	"fmt"

	"flashqos/internal/core"
	"flashqos/internal/health"
	"flashqos/internal/pack"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

// BlockStore is the per-device payload engine behind the binary GET/PUT
// data verbs — the surface pack.Store implements. Device ids are global
// (shard·N + local), matching the outcome's Device field. Get appends the
// payload to dst and returns the extended slice; on error dst comes back
// with its length unchanged. AppendAll and WaitAll are the two halves of
// one replicated PUT: AppendAll appends the payload to every listed
// device and records in p where each append ended, WaitAll parks until
// one group commit covers them all; each reports a device's outcome in
// errs. A missing block is pack.ErrNotFound (or an error wrapping it);
// any other Get/AppendAll/WaitAll error is treated as a media fault and
// fed to the device's health monitor.
type BlockStore interface {
	Get(dev int, block int64, dst []byte) ([]byte, error)
	AppendAll(p *pack.Pending, devs []int, block int64, payload []byte, errs []error)
	WaitAll(p *pack.Pending, errs []error) (wrote int)
	Has(dev int, block int64) bool
	Blocks(dev int, dst []int64) []int64
	Copy(from int, to []int, block int64) error
}

// errNoReplica answers a GET for a block no available replica holds.
var errNoReplica = errors.New("block not found")

// submitAt admits one data-path GET (write false) or PUT at the given
// arrival with the server's striped accounting. The health success sample
// is left to the caller: it belongs to the device that actually served
// bytes, known only after the real I/O lands.
func (s *Server) submitAt(st *stripe, write bool, block int64, arrival float64) core.Outcome {
	var out core.Outcome
	if write {
		out = s.arr.SubmitWrite(arrival, block)
	} else {
		out = s.arr.Submit(arrival, block)
	}
	bump(&st.shard[s.arr.ShardOf(block)])
	s.account(st, &out, false)
	return out
}

// dataGet runs one payload read: QoS admission decides the device and the
// timing outcome exactly as a timing-only READ would, then the payload is
// served from the store — from the chosen device when it holds the block,
// falling back to the block's other available replicas (a replica can
// legitimately lag behind during rebuild). The health feed is driven by
// the real I/O: the serving device reports the outcome's response latency
// as its success sample, a device whose read faulted reports an error —
// which is what lets media corruption walk a device to Suspect/Failed.
//
// The payload is appended to dst; the returned slice replaces it. A
// rejected outcome reads nothing. A non-nil error means no bytes could be
// served (every replica missed or faulted).
func (s *Server) dataGet(st *stripe, block int64, hasHealth bool, arrival float64, dst []byte) (core.Outcome, []byte, error) {
	out := s.submitAt(st, false, block, arrival)
	if out.Rejected {
		return out, dst, nil
	}
	sh := s.arr.ShardOf(block)
	base := sh * s.arr.DevicesPerShard()
	var mask *health.Mask
	if mon := s.arr.Monitor(sh); mon != nil {
		mask = mon.Mask()
	}
	var lastErr error
	tryDev := func(g int) ([]byte, bool) {
		b, err := s.opts.Store.Get(g, block, dst)
		if err == nil {
			if hasHealth {
				if m, local := s.monitorFor(g); m != nil {
					m.ReportSuccess(local, out.Response())
				}
			}
			return b, true
		}
		if !errors.Is(err, pack.ErrNotFound) {
			// Real media fault: feed the detector and remember the cause.
			if hasHealth {
				if m, local := s.monitorFor(g); m != nil {
					m.ReportError(local)
				}
			}
			lastErr = err
		}
		return nil, false
	}
	if b, ok := tryDev(out.Device); ok {
		return out, b, nil
	}
	for _, d := range s.arr.System(sh).Replicas(block) {
		g := base + d
		if g == out.Device {
			continue
		}
		// Fallbacks stay within the mask: an unavailable replica is being
		// rebuilt and may hold stale bytes.
		if mask != nil && !mask.Has(d) {
			continue
		}
		if b, ok := tryDev(g); ok {
			return out, b, nil
		}
	}
	if lastErr != nil {
		return out, dst, lastErr
	}
	return out, dst, errNoReplica
}

// pendingPut is one admitted PUT between its two halves: putAppend fills
// it on the read loop, putWait completes it on the connection's acker.
// Its slices keep their capacity across reuse.
type pendingPut struct {
	id   uint64       // request ID the reply echoes
	at   int          // offset in its batch's reply buffer where the reply goes
	out  core.Outcome // the admission outcome the ack carries
	devs []int        // the available replicas appended to
	errs []error      // devs[i]'s outcome
	p    pack.Pending
}

// putAppend runs the first half of one payload write, on the read loop:
// QoS admission prices it like a timing-only WRITE (all replicas
// touched), then the payload is appended to every available replica of
// the block. Unavailable replicas are skipped — that is the degraded
// write the resilver pass catches up. pending reports whether pp now
// holds appends for putWait; otherwise the outcome (rejected) or err is
// the whole answer.
func (s *Server) putAppend(st *stripe, block int64, data []byte, arrival float64, pp *pendingPut) (out core.Outcome, pending bool, err error) {
	out = s.submitAt(st, true, block, arrival)
	if out.Rejected {
		return out, false, nil
	}
	sh := s.arr.ShardOf(block)
	base := sh * s.arr.DevicesPerShard()
	var mask *health.Mask
	if mon := s.arr.Monitor(sh); mon != nil {
		mask = mon.Mask()
	}
	pp.out, pp.devs, pp.errs = out, pp.devs[:0], pp.errs[:0]
	for _, d := range s.arr.System(sh).Replicas(block) {
		if mask == nil || mask.Has(d) {
			pp.devs = append(pp.devs, base+d)
			pp.errs = append(pp.errs, nil)
		}
	}
	if len(pp.devs) == 0 {
		return out, false, fmt.Errorf("no available replica for block %d", block)
	}
	s.opts.Store.AppendAll(&pp.p, pp.devs, block, data, pp.errs)
	return out, true, nil
}

// putWait runs the second half: one group commit covers every replica
// putAppend appended to — as the engine prices the c replicas served
// together — each replica reports to health (a fault on its append or
// its fsync is a health error), and the ack or error frame is appended
// to dst. The ack contract: an ack means the payload is group-commit
// fsynced on at least one replica, every available replica was
// attempted, and every replica appended to was waited on.
func (s *Server) putWait(pp *pendingPut, hasHealth bool, dst []byte) []byte {
	wrote := s.opts.Store.WaitAll(&pp.p, pp.errs)
	var lastErr error
	for i, g := range pp.devs {
		if pp.errs[i] != nil {
			lastErr = pp.errs[i]
		}
		if !hasHealth {
			continue
		}
		if m, local := s.monitorFor(g); m != nil {
			if pp.errs[i] != nil {
				m.ReportError(local)
			} else {
				m.ReportSuccess(local, pp.out.Response())
			}
		}
	}
	h := wire.Header{Opcode: wire.OpPut, ID: pp.id}
	if wrote == 0 {
		return appendFail(dst, h, lastErr.Error())
	}
	return wire.AppendOutcomeFrame(dst, h, toWireOutcome(pp.out))
}

// RebuildCopy returns the rebuild callback that moves real payloads when
// the health state machine schedules repair work — pass it to
// shard.Array.NewHealthMonitorsWithCopy alongside Options.Store. For each
// repair unit (one design bucket on one device):
//
//   - resilver: the recovered device is repopulated — every block of the
//     bucket held by a surviving replica is copied onto it (blocks it
//     already holds are skipped, so a short outage diffs cheaply);
//   - reprotect: the failed device's redundancy is restored within the
//     bucket's remaining replica set — every available replica ends up
//     holding every block of the bucket that any of them holds.
//
// Copies run at the rebuilder's token rate with the monitor's transition
// lock released (Monitor.Step dequeues under the lock, copies outside
// it), so the group-commit fsyncs here never stall health reporting on
// the GET/PUT path. They are best-effort: a faulted source just means the
// next replica (or the next scheduled pass after re-fail) supplies the
// block.
func RebuildCopy(arr *shard.Array, store BlockStore) func(sh, dev, bucket int, kind health.RebuildKind) {
	return func(sh, dev, bucket int, kind health.RebuildKind) {
		sys := arr.System(sh)
		base := sh * arr.DevicesPerShard()
		reps := sys.Allocator().Replicas(bucket)
		var mask *health.Mask
		if mon := arr.Monitor(sh); mon != nil {
			mask = mon.Mask()
		}
		avail := func(d int) bool { return mask == nil || mask.Has(d) }
		var targets []int
		switch kind {
		case health.Resilver:
			targets = []int{dev}
		case health.Reprotect:
			for _, d := range reps {
				if d != dev && avail(d) {
					targets = append(targets, d)
				}
			}
		}
		if len(targets) == 0 {
			return
		}
		var blocks []int64
		var to []int
		for _, src := range reps {
			// The device under repair is outside the mask, so it is never a
			// source; a reprotect target can be, for blocks the others miss.
			if !avail(src) {
				continue
			}
			blocks = store.Blocks(base+src, blocks[:0])
			for _, b := range blocks {
				if sys.Mapper().DesignBlock(b) != bucket {
					continue
				}
				to = to[:0]
				for _, t := range targets {
					if t != src && !store.Has(base+t, b) {
						to = append(to, base+t)
					}
				}
				if len(to) > 0 {
					// One read, one commit for every target that lacks it.
					store.Copy(base+src, to, b)
				}
			}
		}
	}
}
