package algorithms

import (
	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
)

// Triangle counting on symmetric simple graphs, by the standard orientation
// trick: direct every edge from the smaller to the larger id, and for each
// oriented wedge v→u (v<u) count the common higher neighbors of v and u.
// Each triangle v<u<w is counted exactly once, at u.
//
// On Cyclops this is a *single superstep*: every vertex publishes its
// higher-neighbor list into the immutable view at Init, and Compute just
// intersects its in-neighbors' published lists with its own — adjacency
// never travels per-edge. On BSP the same lists must be materialised as
// messages along every oriented edge, which is exactly the kind of bulk
// traffic the distributed immutable view exists to avoid.

// higherNeighbors returns v's neighbors with larger ids, sorted,
// deduplicated (the builder sorts adjacency already).
func higherNeighbors(g *graph.Graph, v graph.ID) []graph.ID {
	ns := g.OutNeighbors(v)
	out := make([]graph.ID, 0, len(ns))
	for _, u := range ns {
		if u > v && (len(out) == 0 || out[len(out)-1] != u) {
			out = append(out, u)
		}
	}
	return out
}

// intersectCount counts common elements of two sorted id slices.
func intersectCount(a, b []graph.ID) int64 {
	var count int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// TrianglesRef counts triangles sequentially.
func TrianglesRef(g *graph.Graph) int64 {
	n := g.NumVertices()
	higher := make([][]graph.ID, n)
	for v := 0; v < n; v++ {
		higher[v] = higherNeighbors(g, graph.ID(v))
	}
	var total int64
	for v := 0; v < n; v++ {
		for _, u := range higher[v] {
			total += intersectCount(higher[v], higher[u])
		}
	}
	return total
}

// TrianglesAggregator accumulates the per-vertex triangle counts.
const TrianglesAggregator = "triangles"

// TrianglesCyclops counts triangles in one superstep over the view.
type TrianglesCyclops struct{}

// Init implements cyclops.Program: the published value is the sorted
// higher-neighbor list.
func (TrianglesCyclops) Init(id graph.ID, g *graph.Graph) (int64, []graph.ID, bool) {
	return 0, higherNeighbors(g, id), true
}

// Compute implements cyclops.Program.
func (TrianglesCyclops) Compute(ctx *cyclops.Context[int64, []graph.ID]) {
	u := ctx.Vertex()
	var count int64
	// The engine deduplicates in-edges per source only as far as the input
	// graph does; symmetric simple graphs give one in-edge per neighbor.
	own := ctx.Message() // this vertex's own published higher list
	view, srcs, _ := ctx.In()
	for _, s := range srcs {
		list := view[s]
		// Only wedges arriving from lower-id neighbors count; orientation is
		// read off the list itself (v < u iff u appears in v's higher list).
		if containsID(list, u) {
			count += intersectCount(list, own)
		}
	}
	ctx.SetValue(count)
	ctx.Aggregate(TrianglesAggregator, float64(count))
	// No Publish: one superstep, then everyone sleeps.
}

func containsID(sorted []graph.ID, x graph.ID) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}

// TrianglesBSP counts triangles with two supersteps of list shipping.
type TrianglesBSP struct{}

// Init implements bsp.Program.
func (TrianglesBSP) Init(id graph.ID, _ *graph.Graph) int64 { return 0 }

// Compute implements bsp.Program.
func (TrianglesBSP) Compute(ctx *bsp.Context[int64, []graph.ID], msgs [][]graph.ID) {
	g := ctx
	switch ctx.Superstep() {
	case 0:
		mine := higherFromCtx(g)
		for _, u := range mine {
			ctx.SendTo(u, mine)
		}
		ctx.VoteToHalt()
	case 1:
		own := higherFromCtx(g)
		var count int64
		for _, list := range msgs {
			count += intersectCount(list, own)
		}
		ctx.SetValue(count)
		ctx.Aggregate(TrianglesAggregator, float64(count))
		ctx.VoteToHalt()
	default:
		ctx.VoteToHalt()
	}
}

func higherFromCtx(ctx *bsp.Context[int64, []graph.ID]) []graph.ID {
	v := ctx.Vertex()
	ns := ctx.OutNeighbors()
	out := make([]graph.ID, 0, len(ns))
	for _, u := range ns {
		if u > v && (len(out) == 0 || out[len(out)-1] != u) {
			out = append(out, u)
		}
	}
	return out
}

// SumCounts totals per-vertex triangle counts.
func SumCounts(values []int64) int64 {
	var total int64
	for _, v := range values {
		total += v
	}
	return total
}
