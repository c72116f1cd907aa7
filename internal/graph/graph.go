// Package graph provides the immutable in-memory graph representation shared
// by every engine in this repository. Graphs are directed, weighted, and
// stored in compressed sparse row (CSR) form with both out- and in-adjacency
// so that push-mode engines (BSP) can iterate out-edges and pull-mode engines
// (Cyclops) can iterate in-edges without transposing at run time.
//
// Vertex identifiers are dense uint32 values in [0, NumVertices). The Cyclops
// paper (HPDC'14) evaluates on graphs between 0.1M and 5.7M vertices; dense
// 32-bit ids comfortably cover that range while halving adjacency memory
// compared to 64-bit ids.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// ID is a dense vertex identifier in [0, NumVertices).
type ID = uint32

// Edge is a directed, weighted edge. The zero Weight is meaningful for
// unweighted algorithms (PageRank, label propagation ignore weights).
type Edge struct {
	Src    ID
	Dst    ID
	Weight float64
}

// Graph is an immutable directed graph in CSR form. Construct one with a
// Builder or one of the loaders in this package; after construction the
// structure must not be mutated (engines share it across goroutines without
// synchronization, which is only sound because it is read-only — this is the
// in-memory analogue of the paper's "immutable view" of topology).
type Graph struct {
	n int

	outIndex []int64 // len n+1; outIndex[v]..outIndex[v+1] bounds v's out-edges
	outTo    []ID
	outW     []float64

	inIndex []int64 // len n+1; in-edges of v (sources pointing at v)
	inFrom  []ID
	inW     []float64
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// OutDegree reports the number of out-edges of v.
func (g *Graph) OutDegree(v ID) int { return int(g.outIndex[v+1] - g.outIndex[v]) }

// InDegree reports the number of in-edges of v.
func (g *Graph) InDegree(v ID) int { return int(g.inIndex[v+1] - g.inIndex[v]) }

// OutNeighbors returns the destinations of v's out-edges. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v ID) []ID { return g.outTo[g.outIndex[v]:g.outIndex[v+1]] }

// OutWeights returns the weights of v's out-edges, parallel to OutNeighbors.
func (g *Graph) OutWeights(v ID) []float64 { return g.outW[g.outIndex[v]:g.outIndex[v+1]] }

// InNeighbors returns the sources of v's in-edges, sorted by source
// (Validate checks it). The returned slice aliases internal storage and must
// not be modified.
func (g *Graph) InNeighbors(v ID) []ID { return g.inFrom[g.inIndex[v]:g.inIndex[v+1]] }

// InWeights returns the weights of v's in-edges, parallel to InNeighbors.
func (g *Graph) InWeights(v ID) []float64 { return g.inW[g.inIndex[v]:g.inIndex[v+1]] }

// Edges returns a fresh slice of all edges in (src, position) order. It is
// intended for tests and tooling, not hot paths.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.n; v++ {
		for i := g.outIndex[v]; i < g.outIndex[v+1]; i++ {
			edges = append(edges, Edge{Src: ID(v), Dst: g.outTo[i], Weight: g.outW[i]})
		}
	}
	return edges
}

// HasEdge reports whether a directed edge src→dst exists. Out-neighbor lists
// are sorted by destination, so this is a binary search.
func (g *Graph) HasEdge(src, dst ID) bool {
	ns := g.OutNeighbors(src)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= dst })
	return i < len(ns) && ns[i] == dst
}

// Validate checks CSR structural invariants. It is used by tests and by the
// loaders; a Graph produced by a Builder always validates.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return errors.New("graph: negative vertex count")
	}
	if len(g.outIndex) != g.n+1 || len(g.inIndex) != g.n+1 {
		return errors.New("graph: index arrays have wrong length")
	}
	if g.outIndex[0] != 0 || g.inIndex[0] != 0 {
		return errors.New("graph: index arrays must start at 0")
	}
	if g.outIndex[g.n] != int64(len(g.outTo)) {
		return fmt.Errorf("graph: outIndex end %d != %d edges", g.outIndex[g.n], len(g.outTo))
	}
	if g.inIndex[g.n] != int64(len(g.inFrom)) {
		return fmt.Errorf("graph: inIndex end %d != %d edges", g.inIndex[g.n], len(g.inFrom))
	}
	if len(g.outTo) != len(g.outW) || len(g.inFrom) != len(g.inW) {
		return errors.New("graph: weight arrays not parallel to adjacency")
	}
	if len(g.outTo) != len(g.inFrom) {
		return errors.New("graph: out/in edge counts differ")
	}
	for v := 0; v < g.n; v++ {
		if g.outIndex[v] > g.outIndex[v+1] || g.inIndex[v] > g.inIndex[v+1] {
			return fmt.Errorf("graph: non-monotone index at vertex %d", v)
		}
		ns := g.OutNeighbors(ID(v))
		for i, u := range ns {
			if int(u) >= g.n {
				return fmt.Errorf("graph: out-neighbor %d of %d out of range", u, v)
			}
			if i > 0 && ns[i-1] > u {
				return fmt.Errorf("graph: out-neighbors of %d not sorted", v)
			}
		}
		ns = g.InNeighbors(ID(v))
		for i, u := range ns {
			if int(u) >= g.n {
				return fmt.Errorf("graph: in-neighbor %d of %d out of range", u, v)
			}
			if i > 0 && ns[i-1] > u {
				return fmt.Errorf("graph: in-neighbors of %d not sorted by source", v)
			}
		}
	}
	return nil
}
