package graph

import (
	"math"
	"testing"
)

func TestComputeStatsBasic(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 0, 1}})
	s := ComputeStats(g)
	if s.Vertices != 5 || s.Edges != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxOutDegree != 3 || s.MaxInDegree != 1 {
		t.Errorf("max degrees: out=%d in=%d", s.MaxOutDegree, s.MaxInDegree)
	}
	if s.Isolated != 1 { // vertex 4
		t.Errorf("isolated = %d, want 1", s.Isolated)
	}
	if math.Abs(s.MeanDegree-0.8) > 1e-12 {
		t.Errorf("mean degree = %g", s.MeanDegree)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(mustGraph(t, 0, nil))
	if s.Vertices != 0 || s.Edges != 0 || s.GiniOut != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestGiniUniformVsSkewed(t *testing.T) {
	// Uniform out-degree 1 on a ring: gini near 0.
	ring := NewBuilder(10)
	for v := 0; v < 10; v++ {
		ring.AddEdge(ID(v), ID((v+1)%10))
	}
	uniform := ComputeStats(ring.MustBuild())
	// Star: one hub with all edges: gini near 1.
	star := NewBuilder(10)
	for v := 1; v < 10; v++ {
		star.AddEdge(0, ID(v))
	}
	skewed := ComputeStats(star.MustBuild())
	if uniform.GiniOut > 0.05 {
		t.Errorf("ring gini = %g, want ~0", uniform.GiniOut)
	}
	if skewed.GiniOut < 0.8 {
		t.Errorf("star gini = %g, want ~0.9", skewed.GiniOut)
	}
	if skewed.GiniOut <= uniform.GiniOut {
		t.Error("skewed gini must exceed uniform gini")
	}
}

func TestStatsString(t *testing.T) {
	s := ComputeStats(mustGraph(t, 2, []Edge{{0, 1, 1}}))
	if s.String() == "" {
		t.Fatal("String must render")
	}
}
