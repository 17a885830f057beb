// Package blockmap matches a storage system's many data blocks onto the
// limited number of design blocks (allocation rows) of a replicated
// declustering scheme (paper §IV-A). Data blocks that FIM reports as
// frequently requested together are assigned to different design blocks —
// different device sets — so they can be retrieved in parallel. Data blocks
// not covered by the mining fall back to the paper's modulo rule:
// designBlock = dataBlockNumber mod numberOfDesignBlocks.
package blockmap

import (
	"fmt"
	"sort"

	"flashqos/internal/fim"
)

// Mapper assigns data blocks to design blocks.
type Mapper struct {
	rows     int
	assigned map[int64]int
}

// NewMapper creates a mapper for a scheme with the given number of design
// blocks (allocation rows).
func NewMapper(rows int) (*Mapper, error) {
	if rows < 1 {
		return nil, fmt.Errorf("blockmap: rows must be >= 1, got %d", rows)
	}
	return &Mapper{rows: rows, assigned: make(map[int64]int)}, nil
}

// Mapped reports whether a data block has a FIM-derived assignment.
func (m *Mapper) Mapped(dataBlock int64) bool {
	_, ok := m.assigned[dataBlock]
	return ok
}

// DesignBlock returns the design block for a data block: the FIM-derived
// assignment if one exists, the modulo fallback otherwise.
func (m *Mapper) DesignBlock(dataBlock int64) int {
	// The assigned map is empty until the first FIM remap; skip the hash
	// on the submit hot path until then.
	if len(m.assigned) != 0 {
		if db, ok := m.assigned[dataBlock]; ok {
			return db
		}
	}
	mod := dataBlock % int64(m.rows)
	if mod < 0 {
		mod += int64(m.rows)
	}
	return int(mod)
}

// BuildFromPairs replaces the FIM-derived assignments using the mined
// frequent pairs. Data blocks are processed in descending order of total
// pair support; each is assigned the design block that minimizes the total
// support of conflicts with already-assigned co-requested blocks, breaking
// ties toward the least-used design block.
func (m *Mapper) BuildFromPairs(pairs []fim.Pair) {
	m.assigned = make(map[int64]int)
	if len(pairs) == 0 {
		return
	}
	// Conflict graph: neighbor lists with supports.
	type edge struct {
		to     int64
		weight int
	}
	adj := make(map[int64][]edge)
	weight := make(map[int64]int)
	for _, p := range pairs {
		adj[p.A] = append(adj[p.A], edge{p.B, p.Support})
		adj[p.B] = append(adj[p.B], edge{p.A, p.Support})
		weight[p.A] += p.Support
		weight[p.B] += p.Support
	}
	blocks := make([]int64, 0, len(adj))
	for b := range adj {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool {
		if weight[blocks[i]] != weight[blocks[j]] {
			return weight[blocks[i]] > weight[blocks[j]]
		}
		return blocks[i] < blocks[j]
	})
	usage := make([]int, m.rows)
	conflict := make([]int, m.rows) // scratch: conflict weight per design block
	for _, b := range blocks {
		for i := range conflict {
			conflict[i] = 0
		}
		for _, e := range adj[b] {
			if db, ok := m.assigned[e.to]; ok {
				conflict[db] += e.weight
			}
		}
		best := 0
		for db := 1; db < m.rows; db++ {
			if conflict[db] < conflict[best] ||
				(conflict[db] == conflict[best] && usage[db] < usage[best]) {
				best = db
			}
		}
		m.assigned[b] = best
		usage[best]++
	}
}

// MappedSeenFraction returns the fraction of FIM-mapped data blocks that
// appear in the given block set — the paper's Fig 11 metric: "x% of the
// blocks found mining the previous interval is encountered in the current
// interval". Returns 0 when nothing is mapped.
func (m *Mapper) MappedSeenFraction(blocks []int64) float64 {
	if len(m.assigned) == 0 {
		return 0
	}
	present := make(map[int64]bool, len(blocks))
	for _, b := range blocks {
		present[b] = true
	}
	hit := 0
	for b := range m.assigned {
		if present[b] {
			hit++
		}
	}
	return float64(hit) / float64(len(m.assigned))
}

// ConflictSupport measures the residual conflict of the current assignment:
// the total support of mined pairs whose two data blocks map to the same
// design block (and would therefore share a device set). Lower is better;
// used by the FIM-vs-modulo ablation.
func (m *Mapper) ConflictSupport(pairs []fim.Pair) int {
	total := 0
	for _, p := range pairs {
		if m.DesignBlock(p.A) == m.DesignBlock(p.B) {
			total += p.Support
		}
	}
	return total
}
