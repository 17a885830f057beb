package maxflow

import "fmt"

// Solver is a reusable retrieval-feasibility engine. It owns one bipartite
// flow network (source → blocks → devices → sink) whose buffers are
// preallocated once and rewritten in place on every call, so repeated
// solves perform zero heap allocations in the steady state. Results are
// bit-identical to a from-scratch Graph built per call (the reference the
// tests compare against): edges are laid out in the exact same order and solved by the same Dinic
// implementation, so the computed flow — and therefore the returned
// assignment — matches the fresh-graph path exactly.
//
// A Solver is NOT safe for concurrent use: it reuses internal scratch and
// returns assignments backed by an internal buffer that the next call
// overwrites. Use one Solver per goroutine (sampling.Estimate gives each
// worker its own) and copy the assignment if it must outlive the next call.
type Solver struct {
	g Graph // active network; slices re-point into the buffers below

	// Backing buffers sized for the largest shape seen so far.
	adjBuf   [][]int
	levelBuf []int
	iterBuf  []int
	queueBuf []int

	// Shape of the network currently built: b blocks, n devices, and the
	// replica-list length of each block. When an incoming instance has the
	// same shape, only the block→device edge targets and the device
	// adjacency lists are rewritten; the source→block and device→sink
	// structure is kept as is.
	b, n       int
	counts     []int
	blockEdges int // total block→device edge count of the current shape

	assign Assignment // reusable result buffer
}

// NewSolver returns a Solver preallocated for instances of up to maxBlocks
// blocks on up to maxDevices devices. Larger instances still work — buffers
// grow on demand — but the steady state is allocation-free only once the
// buffers have grown to the working set's high-water mark.
func NewSolver(maxBlocks, maxDevices int) *Solver {
	if maxBlocks < 0 {
		maxBlocks = 0
	}
	if maxDevices < 0 {
		maxDevices = 0
	}
	nv := maxBlocks + maxDevices + 2
	const replicasHint = 4
	s := &Solver{
		adjBuf:   make([][]int, nv),
		levelBuf: make([]int, nv),
		iterBuf:  make([]int, nv),
		queueBuf: make([]int, nv),
		counts:   make([]int, 0, maxBlocks),
		assign:   make(Assignment, 0, maxBlocks),
	}
	s.g.edges = make([]edge, 0, 2*(maxBlocks*(replicasHint+1)+maxDevices))
	return s
}

// ensure grows the vertex-indexed buffers to hold nv vertices and points
// the graph's scratch slices at them.
func (s *Solver) ensure(nv int) {
	if nv > len(s.adjBuf) {
		grown := make([][]int, nv)
		copy(grown, s.adjBuf)
		s.adjBuf = grown
		s.levelBuf = make([]int, nv)
		s.iterBuf = make([]int, nv)
		s.queueBuf = make([]int, nv)
	}
	s.g.n = nv
	s.g.adj = s.adjBuf[:nv]
	s.g.level = s.levelBuf[:nv]
	s.g.iter = s.iterBuf[:nv]
	s.g.queue = s.queueBuf[:0]
}

// sameShape reports whether the instance matches the currently built
// network: identical block count, device count, and per-block replica-list
// lengths. Replica *targets* may differ — those are rewritten in place.
func (s *Solver) sameShape(replicas [][]int, n int) bool {
	if len(replicas) != s.b || n != s.n || len(s.counts) != len(replicas) {
		return false
	}
	for i, devs := range replicas {
		if len(devs) != s.counts[i] {
			return false
		}
	}
	return true
}

// prepare builds (or rewrites in place) the feasibility network for the
// instance, leaving every device→sink capacity at 0 and all flow zeroed;
// callers follow with setCaps/setCapsUniform. Device ids are validated in
// one upfront pass. Edge order matches the fresh-graph reference layout
// exactly: b source→block pairs, then the block→device pairs in replica
// order, then n device→sink pairs.
func (s *Solver) prepare(replicas [][]int, n int) {
	for _, devs := range replicas {
		for _, d := range devs {
			if d < 0 || d >= n {
				panic(fmt.Sprintf("maxflow: device %d out of range [0,%d)", d, n))
			}
		}
	}
	if s.sameShape(replicas, n) {
		s.rewrite(replicas)
		return
	}
	s.rebuild(replicas, n)
}

// rewrite retargets the block→device edges of a same-shape network in
// place: edge slots, source/block/sink adjacency, and capacities are all
// reused; only the edge targets, the device adjacency lists, and the flow
// state change.
func (s *Solver) rewrite(replicas [][]int) {
	b, n := s.b, s.n
	g := &s.g
	for i := range g.edges {
		g.edges[i].flow = 0
	}
	for d := 0; d < n; d++ {
		g.adj[1+b+d] = g.adj[1+b+d][:0]
	}
	k := 0
	for _, devs := range replicas {
		for _, d := range devs {
			fwd := 2 * (b + k)
			g.edges[fwd].to = 1 + b + d
			g.adj[1+b+d] = append(g.adj[1+b+d], fwd+1)
			k++
		}
	}
	// The device→sink edge was added after all block edges, so it comes
	// last in each device's adjacency — same order as a fresh build.
	for d := 0; d < n; d++ {
		g.adj[1+b+d] = append(g.adj[1+b+d], 2*(b+s.blockEdges+d))
	}
	g.queue = s.queueBuf[:0]
}

// rebuild constructs the network from scratch into the reused buffers.
func (s *Solver) rebuild(replicas [][]int, n int) {
	b := len(replicas)
	nv := b + n + 2
	// Clear the adjacency of every vertex the previous shape used; vertices
	// beyond that are empty by induction.
	prev := s.b + s.n + 2
	if s.b == 0 && s.n == 0 {
		prev = 0
	}
	for i := 0; i < prev && i < len(s.adjBuf); i++ {
		s.adjBuf[i] = s.adjBuf[i][:0]
	}
	s.ensure(nv)
	g := &s.g
	g.edges = g.edges[:0]
	src, sink := 0, b+n+1
	for i := range replicas {
		g.AddEdge(src, 1+i, 1)
	}
	s.counts = s.counts[:0]
	k := 0
	for i, devs := range replicas {
		for _, d := range devs {
			g.AddEdge(1+i, 1+b+d, 1)
			k++
		}
		s.counts = append(s.counts, len(devs))
	}
	for d := 0; d < n; d++ {
		g.AddEdge(1+b+d, sink, 0)
	}
	s.b, s.n, s.blockEdges = b, n, k
}

// setCapsUniform sets every device→sink capacity to m.
func (s *Solver) setCapsUniform(m int) {
	base := s.b + s.blockEdges
	for d := 0; d < s.n; d++ {
		s.g.edges[2*(base+d)].cap = m
	}
}

// raiseCaps increments every device→sink capacity by one. The flow already
// pushed remains a valid flow in the enlarged network — raising sink-side
// capacities never violates an edge's capacity or conservation — so Dinic
// can continue from the current residual instead of re-solving.
func (s *Solver) raiseCaps() {
	base := s.b + s.blockEdges
	for d := 0; d < s.n; d++ {
		s.g.edges[2*(base+d)].cap++
	}
}

// resetFlows zeroes the flow state, keeping the network structure.
func (s *Solver) resetFlows() {
	for i := range s.g.edges {
		s.g.edges[i].flow = 0
	}
}

// extract reads the assignment off the block→device edge flows by index
// arithmetic (block edge k is edge pair b+k, in replica order) into the
// solver's reusable buffer. Valid until the next call on this Solver.
func (s *Solver) extract(replicas [][]int) Assignment {
	b := s.b
	if cap(s.assign) < b {
		s.assign = make(Assignment, b)
	}
	s.assign = s.assign[:b]
	k := 0
	for i, devs := range replicas {
		s.assign[i] = -1
		for range devs {
			fwd := 2 * (b + k)
			if s.g.edges[fwd].flow > 0 {
				s.assign[i] = s.g.edges[fwd].to - (1 + b)
			}
			k++
		}
	}
	return s.assign
}

// Feasible reports whether the b blocks can be retrieved in at most m
// parallel accesses on n devices, and if so returns the block→device
// assignment, in which no device serves more than m blocks. replicas[i]
// lists the devices storing block i. The returned assignment is backed by
// the Solver's buffer and is valid only until the next call.
func (s *Solver) Feasible(replicas [][]int, n, m int) (Assignment, bool) {
	b := len(replicas)
	if b == 0 {
		return Assignment{}, true
	}
	if m <= 0 {
		return nil, false
	}
	s.prepare(replicas, n)
	s.setCapsUniform(m)
	if s.g.MaxFlow(0, b+n+1) != b {
		return nil, false
	}
	return s.extract(replicas), true
}

// FeasibleCaps is Feasible with an individual capacity per device (device d
// may serve at most caps[d] blocks); n is len(caps). Used by the
// heterogeneous (makespan) scheduler.
func (s *Solver) FeasibleCaps(replicas [][]int, caps []int) (Assignment, bool) {
	b := len(replicas)
	n := len(caps)
	if b == 0 {
		return Assignment{}, true
	}
	s.prepare(replicas, n)
	base := s.b + s.blockEdges
	for d := 0; d < n; d++ {
		s.g.edges[2*(base+d)].cap = caps[d]
	}
	if s.g.MaxFlow(0, b+n+1) != b {
		return nil, false
	}
	return s.extract(replicas), true
}

// Solve returns the minimal number of parallel accesses M* for the request
// together with an optimal assignment, raising M incrementally: after an
// infeasible check at M, the device→sink capacities are bumped to M+1 and
// Dinic continues from the existing residual flow, so each increment pays
// only for the marginal augmenting paths. When M had to be raised, one
// final from-scratch solve at M* canonicalizes the assignment so it is
// bit-identical to the fresh-graph MinAccesses reference. Semantics match
// MinAccesses; the returned assignment is backed by the Solver's buffer
// and is valid only until the next call.
func (s *Solver) Solve(replicas [][]int, n int) (int, Assignment) {
	b := len(replicas)
	if b == 0 {
		return 0, Assignment{}
	}
	lb := (b + n - 1) / n // optimal lower bound ⌈b/n⌉
	s.prepare(replicas, n)
	s.setCapsUniform(lb)
	src, sink := 0, b+n+1
	flow := s.g.MaxFlow(src, sink)
	m := lb
	for flow < b {
		m++
		if m > b {
			panic("maxflow: no feasible schedule — block with no valid replica")
		}
		s.raiseCaps()
		flow += s.g.MaxFlow(src, sink)
	}
	if m > lb {
		// Re-solve once from zero flow at M*: the incremental residual told
		// us the minimal M cheaply, but its flow decomposition can differ
		// from a fresh solve's, and callers (and the paper harnesses)
		// depend on the reference assignment bit-for-bit.
		s.resetFlows()
		if s.g.MaxFlow(src, sink) != b {
			panic("maxflow: canonical re-solve infeasible") // unreachable: M* verified above
		}
	}
	return m, s.extract(replicas)
}
