// Package algorithms implements the four workloads of the paper's evaluation
// (§6.1) — PageRank, Single Source Shortest Path, Community Detection by
// label propagation, and Alternating Least Squares — once per engine (Hama
// BSP, Cyclops, PowerGraph GAS) plus a sequential reference implementation
// each. The BSP and Cyclops variants are deliberately near-verbatim
// transcriptions of the paper's Figure 2 and Figure 5 pseudo-code, so the
// few-SLOC porting claim of §6.1 can be seen in the diff between them.
package algorithms

import (
	"math"

	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
	"cyclops/internal/graphlab"
)

// Damping is the PageRank damping factor used throughout the paper.
const Damping = 0.85

// outDeg1 treats dangling vertices as degree 1 so shares stay finite (the
// paper's programs divide by numEdges without special-casing; synthetic
// power-law graphs always give vertex 0 no out-edges at generation start).
func outDeg1(g *graph.Graph, id graph.ID) float64 {
	if d := g.OutDegree(id); d > 0 {
		return float64(d)
	}
	return 1
}

// PageRankRef iterates the PageRank recurrence sequentially for iters
// rounds. It is the ground truth the engine tests compare against and the
// "final result collected offline" of the convergence experiment (§6.9).
func PageRankRef(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	share := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
		share[v] = rank[v] / outDeg1(g, graph.ID(v))
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.ID(v)) {
				sum += share[u]
			}
			rank[v] = 0.15/float64(n) + Damping*sum
		}
		for v := 0; v < n; v++ {
			share[v] = rank[v] / outDeg1(g, graph.ID(v))
		}
	}
	return rank
}

// PageRankBSP is the paper's Figure 2 program: pull-mode PageRank forced
// into push-mode BSP. Every vertex must stay alive to resend its share, and
// termination depends on the coarse global error aggregate.
//
// Superstep 0 only seeds shares; superstep k computes iteration k. Epsilon
// ≤ 0 disables the error check (fixed-iteration mode for exact comparisons).
type PageRankBSP struct {
	// Eps is the global-error bound of Figure 2's getGlobalError() check.
	Eps float64
}

// ErrorAggregator is the aggregator name PageRankBSP (Figure 2) publishes
// |Δrank| into in eps mode; no other program publishes into it. Pair it with
// aggregate.GlobalErrorHalt.
const ErrorAggregator = "pr-error"

// Init implements bsp.Program.
func (PageRankBSP) Init(id graph.ID, g *graph.Graph) float64 {
	return 1 / float64(g.NumVertices())
}

// Compute implements bsp.Program.
func (p PageRankBSP) Compute(ctx *bsp.Context[float64, float64], msgs []float64) {
	if ctx.Superstep() == 0 {
		// Seed round: broadcast the initial share.
		ctx.SendToNeighbors(ctx.Value() / outDegCtx(ctx))
		return
	}
	var sum float64
	for _, m := range msgs {
		sum += m
	}
	value := 0.15/float64(ctx.NumVertices()) + Damping*sum
	last := ctx.Value()
	ctx.SetValue(value)
	// Figure 2: while the global error is above epsilon, keep sending; the
	// global error of the previous superstep is all a BSP vertex can see.
	// Fixed-iteration mode (Eps ≤ 0) neither publishes nor reads it: a
	// GlobalErrorHalt paired with it never fires, aggregate or not.
	if p.Eps > 0 {
		ctx.Aggregate(ErrorAggregator, math.Abs(value-last))
		if globalErr, ok := ctx.AggregateValue(ErrorAggregator); ok && globalErr/float64(ctx.NumVertices()) < p.Eps {
			ctx.VoteToHalt()
			return
		}
	}
	ctx.SendToNeighbors(value / outDegCtx(ctx))
}

func outDegCtx[V, M any](ctx *bsp.Context[V, M]) float64 {
	if d := ctx.OutDegree(); d > 0 {
		return float64(d)
	}
	return 1
}

// PageRankCyclops is the paper's Figure 5 program: the same algorithm over
// the distributed immutable view. Neighbor shares are read directly from the
// view, convergence is the *local* error, and a converged vertex simply
// stops publishing — its last share stays readable by neighbors forever.
type PageRankCyclops struct {
	// Eps is the local error bound; a vertex whose |Δrank| falls below it
	// stops activating its neighbors. Eps ≤ 0 means fixed-iteration mode.
	Eps float64
}

// Init implements cyclops.Program: value is the rank, the published message
// is the share rank/outDegree (what Figure 5 passes to activateNeighbors).
func (PageRankCyclops) Init(id graph.ID, g *graph.Graph) (float64, float64, bool) {
	rank := 1 / float64(g.NumVertices())
	return rank, rank / outDeg1(g, id), true
}

// Compute implements cyclops.Program.
func (p PageRankCyclops) Compute(ctx *cyclops.Context[float64, float64]) {
	view, srcs, _ := ctx.In()
	var sum float64
	for _, s := range srcs {
		sum += view[s]
	}
	value := 0.15/float64(ctx.NumVertices()) + Damping*sum
	last := ctx.Value()
	ctx.SetValue(value)
	if p.Eps <= 0 || math.Abs(value-last) > p.Eps {
		ctx.Publish(value/outDegCyc(ctx), true)
	}
	// voteToHalt is implicit: without an activation a vertex sleeps.
}

func outDegCyc[V, M any](ctx *cyclops.Context[V, M]) float64 {
	if d := ctx.OutDegree(); d > 0 {
		return float64(d)
	}
	return 1
}

// PRValue is the GAS PageRank vertex value: PowerGraph mirrors cache both
// the rank and the share so gathers stay local.
type PRValue struct {
	Rank  float64
	Share float64
}

// PageRankGAS is PageRank in gather-apply-scatter form.
type PageRankGAS struct {
	g *graph.Graph
	// Iters fixes the iteration count (PowerGraph's sync engine runs
	// PageRank a fixed number of rounds in the paper's comparison).
	Iters int
	// Eps, when positive, stops activating once |Δrank| < Eps.
	Eps float64
}

// NewPageRankGAS builds the GAS program (it closes over the graph for
// out-degrees).
func NewPageRankGAS(g *graph.Graph, iters int, eps float64) *PageRankGAS {
	return &PageRankGAS{g: g, Iters: iters, Eps: eps}
}

// Init implements gas.Program.
func (p *PageRankGAS) Init(id graph.ID, g *graph.Graph) (PRValue, bool) {
	rank := 1 / float64(g.NumVertices())
	return PRValue{Rank: rank, Share: rank / outDeg1(g, id)}, true
}

// Gather implements gas.Program: the sum of the in-neighbours' shares.
func (p *PageRankGAS) Gather(vals []PRValue, srcs []int32, _ []float64) float64 {
	sum := vals[srcs[0]].Share
	for _, s := range srcs[1:] {
		sum += vals[s].Share
	}
	return sum
}

// Sum implements gas.Program.
func (p *PageRankGAS) Sum(a, b float64) float64 { return a + b }

// Apply implements gas.Program.
func (p *PageRankGAS) Apply(id graph.ID, old PRValue, acc float64, hasAcc bool, step int) (PRValue, bool) {
	sum := 0.0
	if hasAcc {
		sum = acc
	}
	rank := 0.15/float64(p.g.NumVertices()) + Damping*sum
	activate := step+1 < p.Iters
	if p.Eps > 0 && math.Abs(rank-old.Rank) < p.Eps {
		activate = false
	}
	return PRValue{Rank: rank, Share: rank / outDeg1(p.g, id)}, activate
}

// Ranks extracts the rank column from GAS PageRank values.
func Ranks(vals []PRValue) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v.Rank
	}
	return out
}

// L1Distance is Σ|a-b|, the metric of the convergence-speed experiment
// (Figure 13(3)).
func L1Distance(a, b []float64) float64 {
	var sum float64
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}

// PageRankGraphLab is the asynchronous formulation for the GraphLab model
// (§2.3): the vertex value is the share rank/outDegree so neighbors can read
// it in place, and an update reschedules the out-neighbors only while its own
// rank is still moving.
type PageRankGraphLab struct {
	// Eps is the per-vertex tolerance below which a vertex stops
	// rescheduling its neighbors.
	Eps float64
}

// Init implements graphlab.Program.
func (p PageRankGraphLab) Init(id graph.ID, g *graph.Graph) (float64, bool) {
	rank := 1 / float64(g.NumVertices())
	return rank / outDeg1(g, id), true
}

// Update implements graphlab.Program.
func (p PageRankGraphLab) Update(ctx *graphlab.Scope[float64]) (float64, bool) {
	var sum float64
	for _, u := range ctx.G.InNeighbors(ctx.ID) {
		sum += ctx.Values[u]
	}
	rank := 0.15/float64(ctx.G.NumVertices()) + Damping*sum
	d := outDeg1(ctx.G, ctx.ID)
	oldRank := ctx.Values[ctx.ID] * d
	return rank / d, math.Abs(rank-oldRank) > p.Eps
}
