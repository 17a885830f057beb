// Package maxflow implements Dinic's maximum-flow algorithm and the
// block→device feasibility network used to compute optimal retrieval
// schedules for replicated data (paper §III-C; Altiparmak & Tosun, ICPP
// 2012). For a request of b replicated blocks on N devices, the minimal
// number of parallel accesses M* is the smallest M for which the bipartite
// network
//
//	source → block_i   (capacity 1)
//	block_i → device_d (capacity 1, for each device holding a replica of i)
//	device_d → sink    (capacity M)
//
// admits a flow of value b. Dinic's algorithm runs in O(E·√V) on these
// unit-capacity bipartite networks, comfortably inside the paper's O(b³)
// bound.
package maxflow

import "fmt"

// Graph is a flow network over vertices 0..n-1 with integer capacities.
// The zero value is not usable; create with NewGraph.
type Graph struct {
	n     int
	edges []edge
	adj   [][]int // vertex -> indices into edges
	// scratch for Dinic
	level []int
	iter  []int
	queue []int
}

type edge struct {
	to, cap, flow int
	rev           int // index of reverse edge in edges
}

// NewGraph returns an empty flow network with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{
		n:     n,
		adj:   make([][]int, n),
		level: make([]int, n),
		iter:  make([]int, n),
		queue: make([]int, 0, n),
	}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.n }

// AddEdge adds a directed edge from u to v with the given capacity and a
// residual reverse edge of capacity 0. It panics on out-of-range vertices or
// negative capacity.
func (g *Graph) AddEdge(u, v, capacity int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	g.edges = append(g.edges, edge{to: v, cap: capacity, rev: len(g.edges) + 1})
	g.adj[u] = append(g.adj[u], len(g.edges)-1)
	g.edges = append(g.edges, edge{to: u, cap: 0, rev: len(g.edges) - 1})
	g.adj[v] = append(g.adj[v], len(g.edges)-1)
}

// bfs builds the level graph; returns false if t is unreachable.
func (g *Graph) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.queue = append(g.queue[:0], s)
	g.level[s] = 0
	for head := 0; head < len(g.queue); head++ {
		u := g.queue[head]
		for _, ei := range g.adj[u] {
			e := &g.edges[ei]
			if e.cap-e.flow > 0 && g.level[e.to] < 0 {
				g.level[e.to] = g.level[u] + 1
				g.queue = append(g.queue, e.to)
			}
		}
	}
	return g.level[t] >= 0
}

// dfs sends blocking flow along the level graph.
func (g *Graph) dfs(u, t, f int) int {
	if u == t {
		return f
	}
	for ; g.iter[u] < len(g.adj[u]); g.iter[u]++ {
		ei := g.adj[u][g.iter[u]]
		e := &g.edges[ei]
		if e.cap-e.flow <= 0 || g.level[e.to] != g.level[u]+1 {
			continue
		}
		d := g.dfs(e.to, t, min(f, e.cap-e.flow))
		if d > 0 {
			e.flow += d
			g.edges[e.rev].flow -= d
			return d
		}
	}
	return 0
}

// MaxFlow computes the maximum flow from s to t, mutating the graph's flow
// state. Calling it twice continues from the current flow (idempotent in
// value).
func (g *Graph) MaxFlow(s, t int) int {
	if s == t {
		return 0
	}
	flow := 0
	for g.bfs(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			f := g.dfs(s, t, int(^uint(0)>>1))
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}

// Reset zeroes all flow, allowing the graph to be reused.
func (g *Graph) Reset() {
	for i := range g.edges {
		g.edges[i].flow = 0
	}
}

// Flow returns the current flow on the i-th added edge (in AddEdge order).
func (g *Graph) Flow(i int) int {
	return g.edges[2*i].flow
}

// --- Retrieval feasibility network ---

// Assignment maps each requested block index to the device chosen for its
// retrieval.
type Assignment []int

// MinAccesses returns the minimal number of parallel accesses M* needed to
// retrieve the given blocks, together with an optimal assignment. The lower
// bound ⌈b/n⌉ is tried first and M is raised until feasible (M* ≤ b
// always, since every block has at least one replica).
//
// This is a convenience wrapper over a throwaway Solver; hot paths should
// hold a Solver and call Solver.Solve.
func MinAccesses(replicas [][]int, n int) (int, Assignment) {
	if len(replicas) == 0 {
		return 0, Assignment{}
	}
	m, a := NewSolver(len(replicas), n).Solve(replicas, n)
	out := make(Assignment, len(a))
	copy(out, a)
	return m, out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
