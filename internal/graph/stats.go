package graph

import (
	"fmt"
	"sort"
)

// Stats summarises a graph's degree structure. The replication factor and
// convergence behaviour studied in the paper are driven by degree skew, so
// the generators' tests assert on these fields.
type Stats struct {
	Vertices     int
	Edges        int
	MaxOutDegree int
	MaxInDegree  int
	MeanDegree   float64 // out-edges per vertex
	// GiniOut is the Gini coefficient of the out-degree distribution:
	// 0 = perfectly uniform, →1 = extremely skewed (power-law graphs sit
	// well above 0.4; lattices near 0).
	GiniOut float64
	// Isolated counts vertices with neither in- nor out-edges.
	Isolated int
}

// ComputeStats scans the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges()}
	if s.Vertices == 0 {
		return s
	}
	degrees := make([]int, s.Vertices)
	for v := 0; v < s.Vertices; v++ {
		od, id := g.OutDegree(ID(v)), g.InDegree(ID(v))
		degrees[v] = od
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		if id > s.MaxInDegree {
			s.MaxInDegree = id
		}
		if od == 0 && id == 0 {
			s.Isolated++
		}
	}
	s.MeanDegree = float64(s.Edges) / float64(s.Vertices)
	s.GiniOut = gini(degrees)
	return s
}

// gini computes the Gini coefficient of non-negative integer samples.
func gini(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]int, len(xs))
	copy(sorted, xs)
	sort.Ints(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += float64(i+1) * float64(x)
		total += float64(x)
	}
	n := float64(len(sorted))
	if total == 0 {
		return 0
	}
	return (2*cum)/(n*total) - (n+1)/n
}

// String renders a one-line summary, used by the graphgen CLI.
func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d meanDeg=%.2f maxOut=%d maxIn=%d gini=%.3f isolated=%d",
		s.Vertices, s.Edges, s.MeanDegree, s.MaxOutDegree, s.MaxInDegree, s.GiniOut, s.Isolated)
}
