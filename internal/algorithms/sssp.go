package algorithms

import (
	"math"

	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
)

// SSSP is the paper's one push-mode workload (§6.1): vertices sleep until a
// shorter distance arrives, so even the BSP version has no redundant
// computation — the Cyclops win here comes only from contention-free
// communication and hierarchical locality (§6.3).

// SSSPRef computes single-source shortest paths sequentially (Bellman-Ford;
// the road graphs have no negative weights but BF also covers any synthetic
// weighting).
func SSSPRef(g *graph.Graph, src graph.ID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	if n == 0 {
		return dist
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for v := 0; v < n; v++ {
			if math.IsInf(dist[v], 1) {
				continue
			}
			ns := g.OutNeighbors(graph.ID(v))
			ws := g.OutWeights(graph.ID(v))
			for i, u := range ns {
				if d := dist[v] + ws[i]; d < dist[u] {
					dist[u] = d
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// SSSPBSP is the classic Pregel shortest-path program: push new distances,
// sleep, wake on message.
type SSSPBSP struct {
	Source graph.ID
}

// Init implements bsp.Program.
func (s SSSPBSP) Init(id graph.ID, _ *graph.Graph) float64 {
	if id == s.Source {
		return 0
	}
	return math.Inf(1)
}

// Compute implements bsp.Program.
func (s SSSPBSP) Compute(ctx *bsp.Context[float64, float64], msgs []float64) {
	best := ctx.Value()
	for _, m := range msgs {
		if m == m { // the NaN-skipping, branch-free min of SSSPCyclops
			best = min(best, m)
		}
	}
	if best < ctx.Value() || (ctx.Superstep() == 0 && ctx.Vertex() == s.Source) {
		ctx.SetValue(best)
		ns := ctx.OutNeighbors()
		ws := ctx.OutWeights()
		for i := range ns {
			ctx.SendTo(ns[i], best+ws[i])
		}
	}
	ctx.VoteToHalt()
}

// SSSPCyclops is the ≈7-SLOC port of §6.1: distances are pulled from the
// immutable view (neighbor distance + in-edge weight) and activation pushes
// the frontier.
type SSSPCyclops struct {
	Source graph.ID
}

// Init implements cyclops.Program.
func (s SSSPCyclops) Init(id graph.ID, _ *graph.Graph) (float64, float64, bool) {
	if id == s.Source {
		return 0, 0, true
	}
	return math.Inf(1), math.Inf(1), false
}

// Compute implements cyclops.Program.
func (s SSSPCyclops) Compute(ctx *cyclops.Context[float64, float64]) {
	view, srcs, weights := ctx.In()
	best := ctx.Value()
	for i, s := range srcs {
		// A branch-free min; d == d skips NaN as d < best did, and no distance
		// is ever −0 (x + y is −0 only if both are), so −0 < +0 never matters.
		if d := view[s] + weights[i]; d == d {
			best = min(best, d)
		}
	}
	if best < ctx.Value() {
		ctx.SetValue(best)
		ctx.Publish(best, true)
	} else if ctx.Superstep() == 0 && ctx.Vertex() == s.Source {
		ctx.Publish(0, true)
	}
}

// SSSPGAS is shortest paths in gather-apply-scatter form: gather is the
// min-plus product over in-edges.
type SSSPGAS struct {
	Source graph.ID
}

// Init implements gas.Program.
func (s SSSPGAS) Init(id graph.ID, _ *graph.Graph) (float64, bool) {
	if id == s.Source {
		return 0, true
	}
	return math.Inf(1), false
}

// Gather implements gas.Program: the min-plus product over the in-edges. A
// NaN path is no path: SSSPRef's d < dist skips it, and as +Inf it cannot
// poison the min of the other candidates.
func (s SSSPGAS) Gather(vals []float64, srcs []int32, weights []float64) float64 {
	best := math.Inf(1)
	for i, src := range srcs {
		if d := vals[src] + weights[i]; d == d {
			best = math.Min(best, d)
		}
	}
	return best
}

// Sum implements gas.Program.
func (s SSSPGAS) Sum(a, b float64) float64 { return math.Min(a, b) }

// Apply implements gas.Program.
func (s SSSPGAS) Apply(id graph.ID, old float64, acc float64, hasAcc bool, step int) (float64, bool) {
	best := old
	if hasAcc && acc < best {
		best = acc
	}
	// The source must scatter its initial distance even though nothing
	// improved it.
	return best, best < old || (step == 0 && id == s.Source)
}
