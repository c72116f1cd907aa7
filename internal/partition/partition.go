// Package partition implements the graph partitioning substrate of the
// paper's §4.2: the default hash partitioner, a range partitioner, and a
// from-scratch Metis-like multilevel k-way partitioner (heavy-edge-matching
// coarsening, greedy region-growing initial partition, boundary FM
// refinement). It also computes the quality metrics the paper reports —
// edge-cut, balance, and the Cyclops replication factor of Figure 11.
package partition

import (
	"fmt"

	"cyclops/internal/graph"
)

// Assignment maps every vertex to one of K partitions (the paper's workers).
type Assignment struct {
	K  int
	Of []int // vertex id → partition in [0,K)
}

// Partitioner assigns the vertices of a graph to k partitions.
type Partitioner interface {
	// Name identifies the algorithm in reports ("hash", "metis", ...).
	Name() string
	// Partition computes a vertex assignment. Implementations must return an
	// assignment covering every vertex with values in [0,k).
	Partition(g *graph.Graph, k int) (*Assignment, error)
}

// Validate checks that the assignment covers graph g with K partitions.
func (a *Assignment) Validate(g *graph.Graph) error {
	if len(a.Of) != g.NumVertices() {
		return fmt.Errorf("partition: assignment covers %d of %d vertices", len(a.Of), g.NumVertices())
	}
	for v, p := range a.Of {
		if p < 0 || p >= a.K {
			return fmt.Errorf("partition: vertex %d assigned to %d, K=%d", v, p, a.K)
		}
	}
	return nil
}

// Sizes returns the number of vertices per partition.
func (a *Assignment) Sizes() []int {
	sizes := make([]int, a.K)
	for _, p := range a.Of {
		sizes[p]++
	}
	return sizes
}

// Balance returns max partition size over the ideal size |V|/K; 1.0 is
// perfect balance.
func (a *Assignment) Balance() float64 {
	if len(a.Of) == 0 || a.K == 0 {
		return 1
	}
	maxSize := 0
	for _, s := range a.Sizes() {
		if s > maxSize {
			maxSize = s
		}
	}
	ideal := float64(len(a.Of)) / float64(a.K)
	if ideal == 0 {
		return 1
	}
	return float64(maxSize) / ideal
}

// EdgeCut counts directed edges whose endpoints land in different partitions.
func (a *Assignment) EdgeCut(g *graph.Graph) int {
	cut := 0
	for v := 0; v < g.NumVertices(); v++ {
		pv := a.Of[v]
		for _, u := range g.OutNeighbors(graph.ID(v)) {
			if a.Of[u] != pv {
				cut++
			}
		}
	}
	return cut
}

// ReplicationFactor computes the Cyclops replication factor (Figure 11): the
// average number of read-only replicas per vertex. A replica of v exists on
// partition p ≠ owner(v) iff v has an out-edge to some vertex on p — the
// replica both serves reads for v's out-neighbors and performs distributed
// activation of them.
func (a *Assignment) ReplicationFactor(g *graph.Graph) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	total := 0
	seen := make([]int, a.K) // stamp array: seen[p] == v+1 ⇒ counted for v
	for v := 0; v < n; v++ {
		pv := a.Of[v]
		for _, u := range g.OutNeighbors(graph.ID(v)) {
			pu := a.Of[u]
			if pu != pv && seen[pu] != v+1 {
				seen[pu] = v + 1
				total++
			}
		}
	}
	return float64(total) / float64(n)
}

// Hash is the default partitioner of Pregel/Hama: vertex v goes to v mod k.
// It is oblivious to structure, so the replication factor approaches the
// average out-degree as k grows (Figure 11(1)).
type Hash struct{}

// Name implements Partitioner.
func (Hash) Name() string { return "hash" }

// Partition implements Partitioner.
func (Hash) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: k must be positive, got %d", k)
	}
	of := make([]int, g.NumVertices())
	for v := range of {
		// Multiplicative hashing decorrelates ids from partitions; plain
		// v%k would give generator-order locality for free, which the real
		// hash partitioner does not enjoy.
		h := uint64(v) * 0x9e3779b97f4a7c15
		of[v] = int(h % uint64(k))
	}
	return &Assignment{K: k, Of: of}, nil
}

// Range assigns contiguous vertex-id blocks to partitions. It is used by
// tests (locality extreme) and as the base case of the multilevel scheme.
type Range struct{}

// Name implements Partitioner.
func (Range) Name() string { return "range" }

// Partition implements Partitioner.
func (Range) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: k must be positive, got %d", k)
	}
	n := g.NumVertices()
	of := make([]int, n)
	for v := 0; v < n; v++ {
		p := v * k / max(n, 1)
		if p >= k {
			p = k - 1
		}
		of[v] = p
	}
	return &Assignment{K: k, Of: of}, nil
}
