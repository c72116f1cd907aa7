package algorithms

import (
	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
)

// Connected Components by HashMin label propagation: every vertex converges
// to the smallest vertex id in its weakly connected component. It is not one
// of the paper's four workloads, but it is the canonical fifth vertex
// program every Pregel-family system ships, and it exercises a behaviour the
// others don't: monotone convergence under both push and pull with exact
// integer equality.
//
// Weak connectivity needs edges followed both ways; callers pass a
// symmetrised graph (gen.Community, gen.Road and gen.Bipartite already are).

// CCRef computes component labels sequentially (union-find).
func CCRef(g *graph.Graph) []int64 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
			v = parent[v]
		}
		return v
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb { // root at the smaller id so labels match HashMin
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range g.OutNeighbors(graph.ID(v)) {
			union(int32(v), int32(u))
		}
	}
	labels := make([]int64, n)
	for v := 0; v < n; v++ {
		labels[v] = int64(find(int32(v)))
	}
	return labels
}

// CCBSP is HashMin in push-mode BSP: announce once, then propagate any
// improvement and sleep.
type CCBSP struct{}

// Init implements bsp.Program.
func (CCBSP) Init(id graph.ID, _ *graph.Graph) int64 { return int64(id) }

// Compute implements bsp.Program.
func (CCBSP) Compute(ctx *bsp.Context[int64, int64], msgs []int64) {
	best := ctx.Value()
	for _, m := range msgs {
		best = min(best, m)
	}
	if best < ctx.Value() || ctx.Superstep() == 0 {
		ctx.SetValue(best)
		ctx.SendToNeighbors(best)
	}
	ctx.VoteToHalt()
}

// CCCyclops is HashMin over the immutable view: pull the neighborhood
// minimum, publish and activate only on improvement.
type CCCyclops struct{}

// Init implements cyclops.Program.
func (CCCyclops) Init(id graph.ID, _ *graph.Graph) (int64, int64, bool) {
	return int64(id), int64(id), true
}

// Compute implements cyclops.Program.
func (CCCyclops) Compute(ctx *cyclops.Context[int64, int64]) {
	view, srcs, _ := ctx.In()
	best := ctx.Value()
	for _, s := range srcs {
		best = min(best, view[s])
	}
	if best < ctx.Value() {
		ctx.SetValue(best)
		ctx.Publish(best, true)
	} else if ctx.Superstep() == 0 {
		ctx.Publish(best, true) // announce the initial label once
	}
}

// CCGAS is HashMin in gather-apply-scatter form (gather = min over
// in-neighbors' labels).
type CCGAS struct{}

// Init implements gas.Program.
func (CCGAS) Init(id graph.ID, _ *graph.Graph) (int64, bool) { return int64(id), true }

// Gather implements gas.Program: the least in-neighbour label.
func (CCGAS) Gather(vals []int64, srcs []int32, _ []float64) int64 {
	best := vals[srcs[0]]
	for _, s := range srcs[1:] {
		best = min(best, vals[s])
	}
	return best
}

// Sum implements gas.Program.
func (CCGAS) Sum(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Apply implements gas.Program.
func (CCGAS) Apply(id graph.ID, old int64, acc int64, hasAcc bool, step int) (int64, bool) {
	best := old
	if hasAcc && acc < best {
		best = acc
	}
	// Scatter on improvement, and once at the start so labels begin flowing.
	return best, best < old || step == 0
}

// ComponentCount tallies distinct labels.
func ComponentCount(labels []int64) int {
	seen := make(map[int64]struct{}, 16)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
