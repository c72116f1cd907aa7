package algorithms

import (
	"cyclops/internal/aggregate"
	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
)

// CDHalt terminates a BSP label-propagation run once a superstep changes no
// labels (the changed-count aggregate is zero or absent).
func CDHalt() aggregate.HaltFunc {
	return func(step int, agg func(string) (float64, bool), _ int64) bool {
		if step == 0 {
			return false
		}
		changed, ok := agg(ChangedAggregator)
		return !ok || changed == 0
	}
}

// Community Detection by synchronous label propagation (§6.1): every vertex
// adopts the most frequent label among its in-neighbors, with deterministic
// tie-breaking toward the smaller label so all engines (and the reference)
// agree bit-for-bit. Vertices with the same final label form a community.

// mostFrequent returns the winning label among labels (smallest on ties), or
// own when labels is empty.
func mostFrequent(own int64, labels func(i int) int64, n int) int64 {
	if n == 0 {
		return own
	}
	counts := make(map[int64]int, n)
	best, bestCount := own, 0
	for i := 0; i < n; i++ {
		l := labels(i)
		c := counts[l] + 1
		counts[l] = c
		if c > bestCount || (c == bestCount && l < best) {
			best, bestCount = l, c
		}
	}
	return best
}

// CDRef iterates synchronous label propagation sequentially for iters
// rounds (or until no label changes).
func CDRef(g *graph.Graph, iters int) []int64 {
	n := g.NumVertices()
	labels := make([]int64, n)
	for v := range labels {
		labels[v] = int64(v)
	}
	next := make([]int64, n)
	for it := 0; it < iters; it++ {
		changed := false
		for v := 0; v < n; v++ {
			ins := g.InNeighbors(graph.ID(v))
			next[v] = mostFrequent(labels[v],
				func(i int) int64 { return labels[ins[i]] }, len(ins))
			if next[v] != labels[v] {
				changed = true
			}
		}
		labels, next = next, labels
		if !changed {
			break
		}
	}
	return labels
}

// CDBSP is label propagation in push-mode BSP: pull-mode in nature, so
// every vertex stays alive rebroadcasting its label each superstep until the
// changed-count aggregate reaches zero.
type CDBSP struct{}

// ChangedAggregator counts vertices whose label changed this superstep.
const ChangedAggregator = "cd-changed"

// Init implements bsp.Program.
func (CDBSP) Init(id graph.ID, _ *graph.Graph) int64 { return int64(id) }

// Compute implements bsp.Program.
func (CDBSP) Compute(ctx *bsp.Context[int64, int64], msgs []int64) {
	if ctx.Superstep() == 0 {
		ctx.SendToNeighbors(ctx.Value())
		return
	}
	label := mostFrequent(ctx.Value(), func(i int) int64 { return msgs[i] }, len(msgs))
	if label != ctx.Value() {
		ctx.SetValue(label)
		ctx.Aggregate(ChangedAggregator, 1)
	}
	// Pull-mode under BSP: rebroadcast regardless of change (the redundant
	// traffic §2.2.2 complains about). The engine's Halt is expected to be
	// aggregate-driven.
	ctx.SendToNeighbors(label)
}

// CDCyclops is label propagation over the immutable view: converged labels
// stay readable without rebroadcast, and only changed vertices activate.
type CDCyclops struct{}

// Init implements cyclops.Program.
func (CDCyclops) Init(id graph.ID, _ *graph.Graph) (int64, int64, bool) {
	return int64(id), int64(id), true
}

// Compute implements cyclops.Program.
func (CDCyclops) Compute(ctx *cyclops.Context[int64, int64]) {
	view, srcs, _ := ctx.In()
	label := mostFrequent(ctx.Value(), func(i int) int64 { return view[srcs[i]] }, len(srcs))
	if label != ctx.Value() {
		ctx.SetValue(label)
		ctx.Publish(label, true)
		ctx.Aggregate(ChangedAggregator, 1)
	}
}

// CommunityAccuracy scores detected labels against planted ground truth:
// the fraction of vertex pairs sharing a planted community that also share a
// detected label, sampled over adjacent pairs (exact pairwise counting is
// quadratic). It is used to sanity-check CD results on the dblp dataset.
func CommunityAccuracy(g *graph.Graph, detected []int64, planted []int) float64 {
	agree, total := 0, 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(graph.ID(v)) {
			if planted[v] == planted[u] {
				total++
				if detected[v] == detected[u] {
					agree++
				}
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(agree) / float64(total)
}
