package algorithms

import (
	"sort"

	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
)

// Coreness (k-core decomposition) by iterated h-index (Lü et al. 2016):
// start every vertex at its degree and repeatedly replace each value with
// the H-operator over its neighbors' values — the largest h such that at
// least h neighbors have value ≥ h. The process converges monotonically
// (downward) to the vertex's coreness. It is a perfect fit for Cyclops'
// dynamic activation: most vertices reach their coreness in a few rounds
// and drop out of the computation. Callers pass symmetric graphs (coreness
// is an undirected notion).

// hIndex computes the H-operator over the values visible through get.
func hIndex(n int, get func(i int) int64) int64 {
	if n == 0 {
		return 0
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = get(i)
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] > vals[b] })
	var h int64
	for i := 0; i < n; i++ {
		if vals[i] >= int64(i+1) {
			h = int64(i + 1)
		} else {
			break
		}
	}
	return h
}

// CorenessRef computes exact coreness sequentially by repeated peeling.
func CorenessRef(g *graph.Graph) []int64 {
	n := g.NumVertices()
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.ID(v))
	}
	core := make([]int64, n)
	removed := make([]bool, n)
	for remaining := n; remaining > 0; {
		// Find the minimum remaining degree and peel everything at it.
		k := -1
		for v := 0; v < n; v++ {
			if !removed[v] && (k == -1 || deg[v] < k) {
				k = deg[v]
			}
		}
		queue := make([]int, 0)
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] <= k {
				queue = append(queue, v)
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if removed[v] {
				continue
			}
			removed[v] = true
			remaining--
			core[v] = int64(k)
			for _, u := range g.OutNeighbors(graph.ID(v)) {
				if !removed[u] {
					deg[u]--
					if deg[u] <= k {
						queue = append(queue, int(u))
					}
				}
			}
		}
	}
	return core
}

// CorenessCyclops is the h-index iteration over the immutable view.
type CorenessCyclops struct{}

// Init implements cyclops.Program.
func (CorenessCyclops) Init(id graph.ID, g *graph.Graph) (int64, int64, bool) {
	d := int64(g.OutDegree(id))
	return d, d, true
}

// Compute implements cyclops.Program.
func (CorenessCyclops) Compute(ctx *cyclops.Context[int64, int64]) {
	view, srcs, _ := ctx.In()
	h := hIndex(len(srcs), func(i int) int64 { return view[srcs[i]] })
	if h < ctx.Value() {
		ctx.SetValue(h)
		ctx.Publish(h, true)
	}
}

// CorenessBSP is the same iteration in message-passing form (pull-mode, so
// everyone rebroadcasts every superstep, as usual for BSP).
type CorenessBSP struct{}

// Init implements bsp.Program.
func (CorenessBSP) Init(id graph.ID, g *graph.Graph) int64 {
	return int64(g.OutDegree(id))
}

// Compute implements bsp.Program.
func (CorenessBSP) Compute(ctx *bsp.Context[int64, int64], msgs []int64) {
	if ctx.Superstep() > 0 {
		h := hIndex(len(msgs), func(i int) int64 { return msgs[i] })
		if h < ctx.Value() {
			ctx.SetValue(h)
			ctx.Aggregate(ChangedAggregator, 1)
		}
	}
	ctx.SendToNeighbors(ctx.Value())
}
