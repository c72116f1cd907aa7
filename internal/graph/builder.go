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
// (src, dst) in O(V+E). The in-CSR comes first: a counting scatter by dst
// writes each edge's (src, w) into its in-row in input order. Walking those
// rows dst by dst then scatters into the out-rows by src, so each out-row
// comes out sorted by dst with parallel edges in input order. The filters
// compact the out-CSR in place (duplicates are adjacent, the first of a run
// the first added), and a transpose into the same in-arrays sorts the in-rows
// by source.
func build[E ID | int64](n int, ends []E, w []float64, dedup, noloop bool) (*Graph, error) {
	m := len(w)
	if uint64(m) > math.MaxUint32 {
		return nil, fmt.Errorf("graph build: %d edges exceed the 32-bit edge index", m)
	}
	outIndex, outTo, outW := make([]int64, n+1), make([]ID, m), make([]float64, m)
	inIndex, inFrom, inW := make([]int64, n+1), make([]ID, m), make([]float64, m)
	for i := 0; i < 2*m; i += 2 {
		outIndex[ends[i]+1]++
		inIndex[ends[i+1]+1]++
	}
	for v := 0; v < n; v++ {
		outIndex[v+1] += outIndex[v]
		inIndex[v+1] += inIndex[v]
	}
	at := make([]int64, n)
	copy(at, inIndex)
	for i, wi := range w {
		d := ends[2*i+1]
		inFrom[at[d]], inW[at[d]] = ID(ends[2*i]), wi
		at[d]++
	}
	copy(at, outIndex)
	for d := range n {
		lo, hi := inIndex[d], inIndex[d+1]
		for j, s := range inFrom[lo:hi] {
			outTo[at[s]], outW[at[s]] = ID(d), inW[lo+int64(j)]
			at[s]++
		}
	}
	g := &Graph{n: n, outIndex: outIndex, outTo: outTo, outW: outW, inIndex: inIndex, inFrom: inFrom, inW: inW}
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
		g.outTo, g.outW, g.inFrom, g.inW = g.outTo[:k], g.outW[:k], g.inFrom[:k], g.inW[:k]
	}
	g.transpose(len(g.outTo) == m) // the in-degrees changed only if a filter removed edges

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph build: %w", err)
	}
	return g, nil
}

// transpose fills the in-CSR from the out-CSR in one counting pass (O(V+E)):
// a vertex's in-edges come out ordered by source, ties in out-edge order.
// It counts the in-degrees first unless inIndex already holds the offsets.
func (g *Graph) transpose(counted bool) {
	if !counted {
		clear(g.inIndex)
		for _, to := range g.outTo {
			g.inIndex[to+1]++
		}
		for v := 0; v < g.n; v++ {
			g.inIndex[v+1] += g.inIndex[v]
		}
	}
	at := make([]int64, g.n)
	copy(at, g.inIndex)
	outW, inFrom, inW := g.outW, g.inFrom, g.inW
	for src := range g.n {
		lo, hi := g.outIndex[src], g.outIndex[src+1]
		for i, to := range g.outTo[lo:hi] {
			inFrom[at[to]], inW[at[to]] = ID(src), outW[lo+int64(i)]
			at[to]++
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
