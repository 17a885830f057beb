package flashsim

import (
	"fmt"
	"sort"
)

// This file models the inside of one flash module the way the MSR SSD
// extension does (paper §II-A, Fig 1): channels of packages of planes, a
// page-mapping FTL with log-structured writes, and greedy garbage
// collection. The device timeline (retrieval.Online) treats a module as a
// fixed-latency server, which is accurate for read-only workloads (the
// paper's traces); the SSD model quantifies when that abstraction holds —
// reads are perfectly predictable until programs and erases contend for
// planes.

// Every module's timing, in milliseconds to match the rest of the
// simulator, and its garbage-collection trigger.
const (
	readMS     = 0.025  // flash array read (cell → register)
	programMS  = 0.2    // register → cell program
	eraseMS    = 1.5    // block erase
	transferMS = 0.1075 // page transfer over the channel; read+transfer ≈ DefaultReadLatency
	// gcLowWater triggers garbage collection when a plane's free blocks
	// drop to this count.
	gcLowWater = 2
)

// SSDConfig describes one flash module's geometry.
type SSDConfig struct {
	Channels       int // independent buses
	PlanesPerChan  int // planes (concurrent flash operations) per channel
	BlocksPerPlane int // at least 2·(gcLowWater+1), so GC has room to work
	PagesPerBlock  int
}

func (c *SSDConfig) applyDefaults() {
	if c.Channels == 0 {
		c.Channels = 4
	}
	if c.PlanesPerChan == 0 {
		c.PlanesPerChan = 2
	}
	if c.BlocksPerPlane == 0 {
		c.BlocksPerPlane = 64
	}
	if c.PagesPerBlock == 0 {
		c.PagesPerBlock = 64
	}
}

func (c *SSDConfig) validate() error {
	if c.Channels < 1 || c.PlanesPerChan < 1 || c.BlocksPerPlane < 2*(gcLowWater+1) || c.PagesPerBlock < 1 {
		return fmt.Errorf("flashsim: bad SSD geometry %+v", *c)
	}
	return nil
}

// ppn is a physical page number: plane, block and page are packed.
type ppn struct {
	plane, block, page int
}

// planeState tracks one plane's log-structured allocation.
type planeState struct {
	nextFree   float64  // time the plane becomes idle
	frontier   int      // block currently being filled
	frontierPg int      // next page within the frontier block
	freeBlocks []int    // fully erased blocks
	valid      [][]bool // [block][page] holds live data
	liveCount  []int    // live pages per block
}

// SSD is a single flash module with an FTL. It is not safe for concurrent
// use; wrap externally if shared.
type SSD struct {
	cfg       SSDConfig
	chanFree  []float64 // per-channel bus availability
	planes    []planeState
	l2p       map[int64]ppn           // logical page → physical page
	p2l       []map[int]map[int]int64 // plane → block → page → lpn (for GC moves)
	nextPlane int                     // round-robin write allocation
	gcRuns    int64
	moved     int64 // pages moved by GC
}

// NewSSD builds a flash module.
func NewSSD(cfg SSDConfig) (*SSD, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nPlanes := cfg.Channels * cfg.PlanesPerChan
	s := &SSD{
		cfg:      cfg,
		chanFree: make([]float64, cfg.Channels),
		planes:   make([]planeState, nPlanes),
		l2p:      make(map[int64]ppn),
		p2l:      make([]map[int]map[int]int64, nPlanes),
	}
	for p := range s.planes {
		ps := &s.planes[p]
		ps.valid = make([][]bool, cfg.BlocksPerPlane)
		ps.liveCount = make([]int, cfg.BlocksPerPlane)
		for b := range ps.valid {
			ps.valid[b] = make([]bool, cfg.PagesPerBlock)
			if b > 0 {
				ps.freeBlocks = append(ps.freeBlocks, b)
			}
		}
		ps.frontier = 0
		s.p2l[p] = make(map[int]map[int]int64)
	}
	return s, nil
}

// Capacity returns the number of logical pages the module can hold while
// keeping GC functional (geometry minus one block per plane of slack).
func (s *SSD) Capacity() int64 {
	perPlane := (s.cfg.BlocksPerPlane - gcLowWater - 1) * s.cfg.PagesPerBlock
	return int64(perPlane * len(s.planes))
}

// GCRuns returns how many garbage collections have executed.
func (s *SSD) GCRuns() int64 { return s.gcRuns }

// MovedPages returns how many live pages GC has relocated.
func (s *SSD) MovedPages() int64 { return s.moved }

// channelOf maps a plane to its channel.
func (s *SSD) channelOf(plane int) int { return plane / s.cfg.PlanesPerChan }

// busy reserves the plane and its channel from t for d and returns the
// operation's start time (after both are free).
func (s *SSD) busy(plane int, t, planeD, chanD float64) (start float64) {
	ch := s.channelOf(plane)
	start = t
	if s.planes[plane].nextFree > start {
		start = s.planes[plane].nextFree
	}
	if s.chanFree[ch] > start {
		start = s.chanFree[ch]
	}
	s.planes[plane].nextFree = start + planeD
	s.chanFree[ch] = start + chanD
	return start
}

// Read services a logical-page read arriving at time t and returns its
// completion time. Reading an unwritten page still costs a full read (the
// FTL returns zeros after the array access).
func (s *SSD) Read(t float64, lpn int64) float64 {
	loc, ok := s.l2p[lpn]
	plane := int(lpn) % len(s.planes)
	if ok {
		plane = loc.plane
	}
	// Plane busy for read, channel busy for the transfer that follows.
	start := s.busy(plane, t, readMS+transferMS, readMS+transferMS)
	return start + readMS + transferMS
}

// Write services a logical-page write arriving at time t, allocating a new
// physical page log-structured and invalidating the old copy. Returns the
// completion time. May trigger garbage collection on the target plane,
// which stalls subsequent operations there.
func (s *SSD) Write(t float64, lpn int64) float64 {
	// Invalidate previous location.
	if old, ok := s.l2p[lpn]; ok {
		ps := &s.planes[old.plane]
		if ps.valid[old.block][old.page] {
			ps.valid[old.block][old.page] = false
			ps.liveCount[old.block]--
			delete(s.p2l[old.plane][old.block], old.page)
		}
	}
	plane := s.nextPlane
	s.nextPlane = (s.nextPlane + 1) % len(s.planes)
	finish := s.program(plane, t, lpn)
	s.maybeGC(plane, finish)
	return finish
}

// program appends lpn to the plane's frontier block at time t.
func (s *SSD) program(plane int, t float64, lpn int64) float64 {
	ps := &s.planes[plane]
	if ps.frontierPg >= s.cfg.PagesPerBlock {
		if len(ps.freeBlocks) == 0 {
			// Forced synchronous GC: no room at all.
			s.collect(plane, ps.nextFree)
			if len(ps.freeBlocks) == 0 {
				panic("flashsim: SSD overfilled — write working set exceeds Capacity()")
			}
		}
		ps.frontier = ps.freeBlocks[0]
		ps.freeBlocks = ps.freeBlocks[1:]
		ps.frontierPg = 0
	}
	start := s.busy(plane, t, programMS+transferMS, transferMS)
	loc := ppn{plane: plane, block: ps.frontier, page: ps.frontierPg}
	ps.frontierPg++
	ps.valid[loc.block][loc.page] = true
	ps.liveCount[loc.block]++
	if s.p2l[plane][loc.block] == nil {
		s.p2l[plane][loc.block] = make(map[int]int64)
	}
	s.p2l[plane][loc.block][loc.page] = lpn
	s.l2p[lpn] = loc
	return start + programMS + transferMS
}

// maybeGC runs garbage collection if the plane is at or below low water.
func (s *SSD) maybeGC(plane int, t float64) {
	if len(s.planes[plane].freeBlocks) <= gcLowWater {
		s.collect(plane, t)
	}
}

// collect performs one greedy GC cycle on a plane at time t: pick the
// non-frontier block with the fewest live pages, relocate them, erase it.
func (s *SSD) collect(plane int, t float64) {
	ps := &s.planes[plane]
	victim := -1
	for b := 0; b < s.cfg.BlocksPerPlane; b++ {
		if b == ps.frontier {
			continue
		}
		free := false
		for _, fb := range ps.freeBlocks {
			if fb == b {
				free = true
				break
			}
		}
		if free {
			continue
		}
		if victim < 0 || ps.liveCount[b] < ps.liveCount[victim] {
			victim = b
		}
	}
	if victim < 0 {
		return
	}
	s.gcRuns++
	// Read the victim's live pages into the controller buffer and
	// invalidate them, charging one flash read each.
	lpns := make([]int64, 0, ps.liveCount[victim])
	pages := make([]int, 0, ps.liveCount[victim])
	for pg, live := range ps.valid[victim] {
		if live {
			pages = append(pages, pg)
		}
	}
	sort.Ints(pages)
	for _, pg := range pages {
		lpns = append(lpns, s.p2l[plane][victim][pg])
		ps.valid[victim][pg] = false
		ps.liveCount[victim]--
		delete(s.p2l[plane][victim], pg)
		s.busy(plane, ps.nextFree, readMS, 0)
	}
	if ps.liveCount[victim] != 0 {
		panic("flashsim: GC accounting broken — live pages remain after relocation")
	}
	// Erase the (now fully invalid) victim BEFORE re-programming, so the
	// relocated pages are guaranteed a destination and the erase can never
	// destroy freshly moved data.
	s.busy(plane, ps.nextFree, eraseMS, 0)
	ps.freeBlocks = append(ps.freeBlocks, victim)
	for _, lpn := range lpns {
		s.program(plane, ps.nextFree, lpn)
		s.moved++
	}
	_ = t
}
