package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestBuildMatchesReference diffs build against a stable sort on random
// multigraphs — parallel edges, self-loops, isolated vertices, n = 0 and
// m = 0 — under every filter setting. The reference orders the out-rows by
// (src, dst) with parallel edges in input order, and the in-rows by
// (dst, src) with parallel edges in out-edge order; every array must match,
// weights bit for bit.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 400 {
		n := rng.Intn(12)
		m := 0
		if n > 0 && trial%10 != 0 {
			m = rng.Intn(4 * n * n)
		}
		edges := make([]Edge, m)
		for i := range edges {
			used := max(1, n-2) // the last two vertices are often isolated
			if rng.Intn(4) == 0 {
				used = n
			}
			edges[i] = Edge{ID(rng.Intn(used)), ID(rng.Intn(used)), math.Float64frombits(rng.Uint64())}
			if rng.Intn(6) == 0 {
				edges[i].Dst = edges[i].Src
			}
		}
		for _, f := range []struct{ dedup, noloop bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			b := NewBuilder(n)
			for _, e := range edges {
				b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
			}
			if f.dedup {
				b.Dedup()
			}
			if f.noloop {
				b.NoSelfLoops()
			}
			got, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceBuild(n, edges, f.dedup, f.noloop); !sameGraph(got, want) {
				t.Fatalf("trial %d %+v: n=%d edges %v\nbuilt %v\nwant  %v", trial, f, n, edges, dump(got), dump(want))
			}
		}
	}
}

// referenceBuild is build as a stable sort: out-edges by (src, dst), the
// filters keeping the first of each (src, dst) run, then in-edges by
// (dst, src) from the out-edge order.
func referenceBuild(n int, edges []Edge, dedup, noloop bool) *Graph {
	out := slices.Clone(edges)
	slices.SortStableFunc(out, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	out = slices.DeleteFunc(out, func(e Edge) bool { return noloop && e.Src == e.Dst })
	if dedup {
		out = slices.CompactFunc(out, func(a, b Edge) bool { return a.Src == b.Src && a.Dst == b.Dst })
	}
	in := slices.Clone(out)
	slices.SortStableFunc(in, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src))
	})
	g := &Graph{n: n, outIndex: make([]int64, n+1), inIndex: make([]int64, n+1)}
	for _, e := range out {
		g.outIndex[e.Src+1]++
		g.outTo, g.outW = append(g.outTo, e.Dst), append(g.outW, e.Weight)
	}
	for _, e := range in {
		g.inIndex[e.Dst+1]++
		g.inFrom, g.inW = append(g.inFrom, e.Src), append(g.inW, e.Weight)
	}
	for v := range n {
		g.outIndex[v+1] += g.outIndex[v]
		g.inIndex[v+1] += g.inIndex[v]
	}
	return g
}

func dump(g *Graph) string {
	return fmt.Sprintf("out %v %v %v in %v %v %v", g.outIndex, g.outTo, g.outW, g.inIndex, g.inFrom, g.inW)
}
