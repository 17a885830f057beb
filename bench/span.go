package main

import (
	"sort"
	"sync"
)

// span is one traced interval recorded by the benchmark around a call
// into a layer (or around one request on the wire). Start and End are
// nanoseconds on the run's monotonic clock; Parent is the ID of the span
// that caused this one (0 = root); Count is how many calls the span covers
// — layer spans batch calls because a clock read per call would cost as
// much as the call.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  uint64
}

func (l *spanLog) newID() uint64 {
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return id
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once; parts of a child outside the parent are ignored).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerTotals sums self time and call counts per span name.
func layerTotals(spans []span) (selfNS map[string]int64, calls map[string]int) {
	self := selfTimes(spans)
	selfNS = make(map[string]int64)
	calls = make(map[string]int)
	for _, s := range spans {
		selfNS[s.Name] += self[s.ID]
		calls[s.Name] += s.Count
	}
	return selfNS, calls
}
