package proxy

import (
	"errors"
	"sync"

	"flashqos/internal/qosnet"
	"flashqos/internal/wire"
)

// Tenant control plane across backends.
//
// The proxy holds no tenant state of its own: TENANT SET/DEL broadcast to
// every live backend so each backend's gate enforces the same per-shard
// policy, hello resolution fans out and demands index agreement (a
// submission tagged with index i must mean the same tenant wherever its
// block routes), and stats/GET merge the per-backend gauges by name. The
// broadcast is not atomic — a backend that refuses a SET (say, a reserve
// beyond its S) leaves earlier backends updated and the error tells the
// operator to reconcile — but the hot path stays safe either way, because
// every backend validates the index on each tagged submission itself.

// errNoBackends is answered when an aggregation verb finds nothing live.
var errNoBackends = errors.New("no live backends")

// fanOut runs fn against every backend in bs concurrently and returns the
// per-backend results in bs order; the first error wins.
func fanOut[T any](bs []*backend, fn func(*backend) (T, error)) ([]T, error) {
	res := make([]T, len(bs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ferr error
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			r, err := fn(b)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if ferr == nil {
					ferr = err
				}
				return
			}
			res[i] = r
		}(i, b)
	}
	wg.Wait()
	if ferr != nil {
		return nil, ferr
	}
	return res, nil
}

// forwardTenantHello resolves tenant names on every live backend and
// demands they agree on every index — 0 (unknown) included — before
// answering, so a client-cached index means the same tenant on whichever
// backend a block routes to.
func (p *Proxy) forwardTenantHello(w *qosnet.FrameWriter, h wire.Header, payload []byte) {
	resp := wire.Header{Opcode: wire.OpTenantHello, ID: h.ID}
	names, err := wire.ParseTenantHelloReq(payload)
	if err != nil {
		w.WriteError(resp, "bad tenant hello payload")
		return
	}
	bs := p.upBackends()
	if len(bs) == 0 {
		w.WriteError(resp, errNoBackends.Error())
		return
	}
	res, err := fanOut(bs, func(b *backend) ([]int32, error) {
		return b.client().TenantHello(names)
	})
	if err != nil {
		w.WriteError(resp, err.Error())
		return
	}
	for _, idx := range res[1:] {
		for j := range idx {
			if idx[j] != res[0][j] {
				w.WriteError(resp, "tenant index mismatch across backends for "+names[j])
				return
			}
		}
	}
	w.WriteFrame(resp, wire.AppendTenantHelloResp(nil, res[0]))
}

// forwardTenant broadcasts SET/DEL to every live backend and serves GET
// from the merged per-backend gauges.
func (p *Proxy) forwardTenant(w *qosnet.FrameWriter, h wire.Header, payload []byte) {
	resp := wire.Header{Opcode: wire.OpTenant, ID: h.ID}
	cmd, spec, err := wire.ParseTenantReq(payload)
	if err != nil {
		w.WriteError(resp, "bad tenant payload")
		return
	}
	bs := p.upBackends()
	if len(bs) == 0 {
		w.WriteError(resp, errNoBackends.Error())
		return
	}
	switch cmd {
	case wire.TenantCmdSet:
		idxs, err := fanOut(bs, func(b *backend) (int32, error) {
			return b.client().TenantSet(spec)
		})
		if err != nil {
			w.WriteError(resp, err.Error())
			return
		}
		for _, idx := range idxs[1:] {
			if idx != idxs[0] {
				w.WriteError(resp, "tenant index mismatch across backends for "+spec.Name)
				return
			}
		}
		w.WriteFrame(resp, wire.AppendInt32(nil, idxs[0]))
	case wire.TenantCmdDel:
		if _, err := fanOut(bs, func(b *backend) (struct{}, error) {
			return struct{}{}, b.client().TenantDel(spec.Name)
		}); err != nil {
			w.WriteError(resp, err.Error())
			return
		}
		w.WriteFrame(resp, nil)
	case wire.TenantCmdGet:
		entries, err := fanOut(bs, func(b *backend) (wire.TenantEntry, error) {
			return b.client().TenantGet(spec.Name)
		})
		if err != nil {
			w.WriteError(resp, err.Error())
			return
		}
		agg := entries[0]
		for _, e := range entries[1:] {
			agg.Admitted += e.Admitted
			agg.Rejected += e.Rejected
			agg.OverLimit += e.OverLimit
			agg.Deficit += e.Deficit
		}
		w.WriteFrame(resp, wire.AppendTenantStats(nil, []wire.TenantEntry{agg}))
	}
}

// gatherTenantStats fans OpTenantStats to every live backend and merges
// entries by tenant name in first-appearance order, summing the gauges.
// Spec and index come from the first backend reporting the name.
func (p *Proxy) gatherTenantStats() ([]wire.TenantEntry, error) {
	bs := p.upBackends()
	if len(bs) == 0 {
		return nil, errNoBackends
	}
	parts, err := fanOut(bs, func(b *backend) ([]wire.TenantEntry, error) {
		return b.client().TenantStats()
	})
	if err != nil {
		return nil, err
	}
	var merged []wire.TenantEntry
	at := map[string]int{}
	for _, part := range parts {
		for _, e := range part {
			i, ok := at[e.Spec.Name]
			if !ok {
				at[e.Spec.Name] = len(merged)
				merged = append(merged, e)
				continue
			}
			merged[i].Admitted += e.Admitted
			merged[i].Rejected += e.Rejected
			merged[i].OverLimit += e.OverLimit
			merged[i].Deficit += e.Deficit
		}
	}
	return merged, nil
}

func (p *Proxy) aggregateTenantStats(w *qosnet.FrameWriter, h wire.Header) {
	resp := wire.Header{Opcode: wire.OpTenantStats, ID: h.ID}
	merged, err := p.gatherTenantStats()
	if err != nil {
		w.WriteError(resp, err.Error())
		return
	}
	w.WriteFrame(resp, wire.AppendTenantStats(nil, merged))
}
