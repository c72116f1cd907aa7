// Package gen produces the synthetic graphs that stand in for the paper's
// datasets (Table 1: Amazon, GWeb, LJournal, Wiki, SYN-GL, DBLP, RoadCA).
// The real SNAP files are not redistributable inside this offline module, so
// each dataset is replaced by a generator that reproduces the structural
// property the evaluation depends on: degree skew for the web/social graphs
// (drives replication factor and convergence asymmetry), planted communities
// for DBLP (drives label propagation), a large-diameter lattice for RoadCA
// (drives SSSP superstep counts), and a bipartite user×item graph for SYN-GL
// (matches the ALS input of Gonzalez et al.). All generators are
// deterministic for a given seed.
package gen

import (
	"math"
	"math/rand"

	"cyclops/internal/graph"
)

// PowerLaw generates a directed graph with a skewed in-degree distribution by
// preferential attachment: each new vertex emits outDegree edges whose
// targets are chosen proportionally to (in-degree + 1) among earlier
// vertices. This mimics web and social graphs where a small head of vertices
// collects most links — the regime in which Cyclops' centralized computation
// model is argued to beat PowerGraph's split computation (§1).
func PowerLaw(n, outDegree int, seed int64) *graph.Graph {
	if n <= 0 {
		return graph.NewBuilder(0).MustBuild()
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	// targets is a repeated-endpoint list: vertex v appears once per received
	// edge plus once unconditionally, so sampling uniformly from it realises
	// the (in-degree + 1) preference.
	targets := make([]graph.ID, 0, n*(outDegree+1))
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		d := outDegree
		if d > v {
			d = v
		}
		for i := 0; i < d; i++ {
			t := targets[rng.Intn(len(targets))]
			if t == graph.ID(v) {
				continue
			}
			// Randomise orientation: attaching strictly new→old would yield
			// a DAG, on which PageRank converges in depth steps — real web
			// graphs have cycles, and the paper's convergence curves
			// (Figure 3) depend on them.
			if rng.Intn(2) == 0 {
				b.AddEdge(graph.ID(v), t)
			} else {
				b.AddEdge(t, graph.ID(v))
			}
			targets = append(targets, t)
		}
		targets = append(targets, graph.ID(v))
	}
	return b.MustBuild()
}

// RMAT generates a graph with the recursive matrix model (Chakrabarti et al.)
// used by Graph500: 2^scale vertices, edgeFactor·2^scale directed edges with
// quadrant probabilities (a, b, c, 1-a-b-c). Duplicate edges and self-loops
// are dropped, so the realised edge count can be slightly below the target.
func RMAT(scale, edgeFactor int, a, b, c float64, seed int64) *graph.Graph {
	n := 1 << scale
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n).Dedup().NoSelfLoops()
	for i := 0; i < m; i++ {
		src, dst := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: neither bit set
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		bld.AddEdge(graph.ID(src), graph.ID(dst))
	}
	return bld.MustBuild()
}

// ErdosRenyi generates a uniform random directed graph with n vertices and m
// edges (duplicates and self-loops removed). It is the "no skew" control used
// by partitioner tests.
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n).Dedup().NoSelfLoops()
	for i := 0; i < m; i++ {
		b.AddEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// Road generates a road-network-like graph: a rows×cols 4-neighbour lattice
// with bidirectional edges plus a small fraction of shortcut edges, weighted
// by a log-normal distribution with µ=0.4, σ=1.2 — exactly the weight model
// §6.2 applies to RoadCA (taken from the Facebook interaction graph of
// Wilson et al.). Lattices have huge diameter relative to power-law graphs,
// which is what makes SSSP run for many supersteps.
func Road(rows, cols int, shortcutFrac float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	b := graph.NewBuilder(n)
	w := func() float64 { return math.Exp(0.4 + 1.2*rng.NormFloat64()) }
	at := func(r, c int) graph.ID { return graph.ID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				wt := w()
				b.AddWeightedEdge(at(r, c), at(r, c+1), wt)
				b.AddWeightedEdge(at(r, c+1), at(r, c), wt)
			}
			if r+1 < rows {
				wt := w()
				b.AddWeightedEdge(at(r, c), at(r+1, c), wt)
				b.AddWeightedEdge(at(r+1, c), at(r, c), wt)
			}
		}
	}
	shortcuts := int(shortcutFrac * float64(n))
	for i := 0; i < shortcuts; i++ {
		u, v := graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n))
		if u == v {
			continue
		}
		wt := w()
		b.AddWeightedEdge(u, v, wt)
		b.AddWeightedEdge(v, u, wt)
	}
	return b.MustBuild()
}

// Community generates a planted-partition graph: k communities of given mean
// size; within a community each vertex links to degIn random members, and
// with probability pOut each vertex also links to degOut vertices outside.
// Edges are bidirectional, matching collaboration networks such as DBLP. The
// planted labels are returned so community-detection results can be scored.
func Community(k, meanSize, degIn, degOut int, seed int64) (*graph.Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	// Community sizes vary ±50% around the mean so label propagation has
	// asymmetric convergence like the real DBLP graph.
	sizes := make([]int, k)
	n := 0
	for i := range sizes {
		s := meanSize/2 + rng.Intn(meanSize+1)
		if s < 2 {
			s = 2
		}
		sizes[i] = s
		n += s
	}
	labels := make([]int, n)
	starts := make([]int, k+1)
	for i, s := range sizes {
		starts[i+1] = starts[i] + s
		for v := starts[i]; v < starts[i+1]; v++ {
			labels[v] = i
		}
	}
	b := graph.NewBuilder(n).Dedup().NoSelfLoops()
	for c := 0; c < k; c++ {
		lo, hi := starts[c], starts[c+1]
		for v := lo; v < hi; v++ {
			for i := 0; i < degIn; i++ {
				u := lo + rng.Intn(hi-lo)
				b.AddEdge(graph.ID(v), graph.ID(u))
				b.AddEdge(graph.ID(u), graph.ID(v))
			}
			for i := 0; i < degOut; i++ {
				u := rng.Intn(n)
				b.AddEdge(graph.ID(v), graph.ID(u))
				b.AddEdge(graph.ID(u), graph.ID(v))
			}
		}
	}
	return b.MustBuild(), labels
}

// Bipartite generates the ALS input: a users×items rating graph where each
// user rates ratingsPerUser random items with ratings in [1,5]. Vertices
// [0,users) are users; [users, users+items) are items. Every rating produces
// both directions so ALS can alternate sides, as in the SYN-GL dataset of
// Gonzalez et al. the paper borrows.
func Bipartite(users, items, ratingsPerUser int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(users + items).Dedup()
	for u := 0; u < users; u++ {
		for i := 0; i < ratingsPerUser; i++ {
			item := graph.ID(users + rng.Intn(items))
			rating := float64(rng.Intn(5) + 1)
			b.AddWeightedEdge(graph.ID(u), item, rating)
			b.AddWeightedEdge(item, graph.ID(u), rating)
		}
	}
	return b.MustBuild()
}
