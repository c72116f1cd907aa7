package graph

import "fmt"

// Builder accumulates edges and produces an immutable Graph. It tolerates
// unsorted input and, optionally, duplicate edges and self-loops (both kept
// by default — PageRank on web graphs legitimately has parallel links after
// URL normalisation; callers that want simple graphs use Dedup).
//
// The zero Builder is ready to use.
type Builder struct {
	n      int
	edges  []Edge
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
	if int(src) >= b.n {
		b.n = int(src) + 1
	}
	if int(dst) >= b.n {
		b.n = int(dst) + 1
	}
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: w})
}

// Build produces the immutable CSR graph. The builder may be reused after
// Build: it retains its edges and Build does not touch them.
func (b *Builder) Build() (*Graph, error) {
	// Sort by (src, dst) in O(V+E): two stable counting passes, least
	// significant key first, so parallel edges keep their input order.
	edges := b.sortedBy(b.edges, func(e Edge) ID { return e.Dst })
	edges = b.sortedBy(edges, func(e Edge) ID { return e.Src })
	if b.noloop || b.dedup {
		// The sorted slab is Build's own, so the filters compact it in place;
		// duplicates are adjacent and the first of each run is the first added.
		kept := edges[:0]
		for _, e := range edges {
			repeat := len(kept) > 0 && e.Src == kept[len(kept)-1].Src && e.Dst == kept[len(kept)-1].Dst
			if (b.noloop && e.Src == e.Dst) || (b.dedup && repeat) {
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
	}

	g := &Graph{
		n:        b.n,
		outIndex: make([]int64, b.n+1),
		outTo:    make([]ID, len(edges)),
		outW:     make([]float64, len(edges)),
		inIndex:  make([]int64, b.n+1),
		inFrom:   make([]ID, len(edges)),
		inW:      make([]float64, len(edges)),
	}

	// Out-CSR: edges are sorted by (src, dst), so a single pass fills it.
	for i, e := range edges {
		g.outIndex[e.Src+1]++
		g.outTo[i] = e.Dst
		g.outW[i] = e.Weight
	}
	for v := 0; v < b.n; v++ {
		g.outIndex[v+1] += g.outIndex[v]
	}
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

// sortedBy returns a copy of edges in ascending key order, ties in input
// order: a CSR whose rows are the keys, read back flat.
func (b *Builder) sortedBy(edges []Edge, key func(Edge) ID) []Edge {
	var a CSRAssembler[Edge]
	a.Grow(b.n)
	for _, e := range edges {
		a.Add(int(key(e)), e)
	}
	a.Fill()
	for _, e := range edges {
		a.Add(int(key(e)), e)
	}
	return a.Build().items
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
