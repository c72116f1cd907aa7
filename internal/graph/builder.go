package graph

import (
	"fmt"
	"math"
)

// Builder accumulates edges and produces an immutable Graph. It tolerates
// unsorted input and, optionally, duplicate edges and self-loops (both kept
// by default — PageRank on web graphs legitimately has parallel links after
// URL normalisation; callers that want simple graphs use Dedup).
//
// The zero Builder is ready to use.
type Builder struct {
	n      int
	ends   []ID // edge i runs from ends[2i] to ends[2i+1], weighted w[i]
	w      []float64
	dedup  bool
	noloop bool
}

// NewBuilder returns a Builder that will produce a graph with at least n
// vertices (AddEdge grows the vertex count as needed).
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// Dedup configures the builder to drop duplicate (src,dst) edges, keeping the
// first occurrence. Returns the builder for chaining.
func (b *Builder) Dedup() *Builder { b.dedup = true; return b }

// NoSelfLoops configures the builder to drop self-loop edges.
func (b *Builder) NoSelfLoops() *Builder { b.noloop = true; return b }

// AddEdge appends a directed edge with weight 1.
func (b *Builder) AddEdge(src, dst ID) { b.AddWeightedEdge(src, dst, 1) }

// AddWeightedEdge appends a directed weighted edge, growing the vertex count
// to cover both endpoints.
func (b *Builder) AddWeightedEdge(src, dst ID, w float64) {
	b.n = max(b.n, int(src)+1, int(dst)+1)
	b.ends = append(b.ends, src, dst)
	b.w = append(b.w, w)
}

// Build produces the immutable CSR graph. The builder may be reused after
// Build: it retains its edges and Build does not touch them.
func (b *Builder) Build() (*Graph, error) { return build(b.n, b.ends, b.w, b.dedup, b.noloop) }

// build makes the graph of the edges ends[2i] → ends[2i+1] (ids below n; the
// loader passes its int64 ids, relabelled in place), weighted w[i], sorted by
// (src, dst) in O(V+E): edge indices go through one stable counting sort by
// dst, then scatter stably by src straight into the out-CSR, so parallel
// edges keep their input order. The filters then compact the out-CSR in
// place: duplicates are adjacent, the first of a run the first added.
func build[E ID | int64](n int, ends []E, w []float64, dedup, noloop bool) (*Graph, error) {
	m := len(w)
	if uint64(m) > math.MaxUint32 {
		return nil, fmt.Errorf("graph build: %d edges exceed the 32-bit edge index", m)
	}
	g := &Graph{
		n:        n,
		outIndex: make([]int64, n+1),
		outTo:    make([]ID, m),
		outW:     make([]float64, m),
		inIndex:  make([]int64, n+1),
	}
	at := make([]int64, n+1)
	for i := 0; i < 2*m; i += 2 {
		g.outIndex[ends[i]+1]++
		at[ends[i+1]+1]++
	}
	for v := 0; v < n; v++ {
		at[v+1] += at[v]
		g.outIndex[v+1] += g.outIndex[v]
	}
	byDst := make([]uint32, m)
	for i := 0; i < m; i++ {
		d := ends[2*i+1]
		byDst[at[d]] = uint32(i)
		at[d]++
	}
	copy(at, g.outIndex)
	for _, i := range byDst {
		s := ends[2*i]
		g.outTo[at[s]], g.outW[at[s]] = ID(ends[2*i+1]), w[i]
		at[s]++
	}
	if noloop || dedup {
		k, start := int64(0), int64(0)
		for v := 0; v < n; v++ {
			row, end := k, g.outIndex[v+1]
			for i := start; i < end; i++ {
				d := g.outTo[i]
				if (noloop && d == ID(v)) || (dedup && k > row && g.outTo[k-1] == d) {
					continue
				}
				g.outTo[k], g.outW[k] = d, g.outW[i]
				k++
			}
			g.outIndex[v+1], start = k, end
		}
		g.outTo, g.outW = g.outTo[:k], g.outW[:k]
	}
	g.inFrom, g.inW = make([]ID, len(g.outTo)), make([]float64, len(g.outTo))
	g.transpose()

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph build: %w", err)
	}
	return g, nil
}

// transpose fills the in-CSR from the out-CSR in one counting pass (O(V+E)):
// a vertex's in-edges come out ordered by source, ties in out-edge order.
func (g *Graph) transpose() {
	for _, to := range g.outTo {
		g.inIndex[to+1]++
	}
	for v := 0; v < g.n; v++ {
		g.inIndex[v+1] += g.inIndex[v]
	}
	cursor := make([]int64, g.n)
	copy(cursor, g.inIndex)
	for src := 0; src < g.n; src++ {
		for i := g.outIndex[src]; i < g.outIndex[src+1]; i++ {
			to := g.outTo[i]
			g.inFrom[cursor[to]] = ID(src)
			g.inW[cursor[to]] = g.outW[i]
			cursor[to]++
		}
	}
}

// MustBuild is Build for graphs known to be well-formed (generators, tests).
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges is a convenience constructor used heavily in tests.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
	}
	return b.Build()
}
