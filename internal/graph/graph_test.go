package graph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
}

// TestValidateRejectsUnsortedInRow: a hand-built graph whose in-row lists its
// sources out of order fails Validate, as an unsorted out-row does; consumers
// such as the multilevel partitioner merge the two rows and rely on both
// orders. The same graph with the row in order validates.
func TestValidateRejectsUnsortedInRow(t *testing.T) {
	build := func(inFrom []ID) *Graph {
		return &Graph{n: 3,
			outIndex: []int64{0, 1, 2, 2}, outTo: []ID{2, 2}, outW: []float64{1, 1},
			inIndex: []int64{0, 0, 0, 2}, inFrom: inFrom, inW: []float64{1, 1}}
	}
	if err := build([]ID{0, 1}).Validate(); err != nil {
		t.Fatalf("sorted in-row: %v", err)
	}
	err := build([]ID{1, 0}).Validate()
	if err == nil || !strings.Contains(err.Error(), "in-neighbors of 2 not sorted") {
		t.Fatalf("unsorted in-row: Validate = %v, want an in-row order error", err)
	}
}

func TestSingleVertexNoEdges(t *testing.T) {
	g := mustGraph(t, 1, nil)
	if g.OutDegree(0) != 0 || g.InDegree(0) != 0 {
		t.Fatal("isolated vertex must have degree 0")
	}
}

func TestBasicAdjacency(t *testing.T) {
	g := mustGraph(t, 4, []Edge{
		{0, 1, 1}, {0, 2, 2}, {1, 2, 3}, {3, 0, 4},
	})
	if got := g.OutNeighbors(0); !reflect.DeepEqual(got, []ID{1, 2}) {
		t.Errorf("OutNeighbors(0) = %v", got)
	}
	if got := g.OutWeights(0); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Errorf("OutWeights(0) = %v", got)
	}
	if got := g.InNeighbors(2); !reflect.DeepEqual(got, []ID{0, 1}) {
		t.Errorf("InNeighbors(2) = %v", got)
	}
	if got := g.InWeights(2); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Errorf("InWeights(2) = %v", got)
	}
	if g.InDegree(0) != 1 || g.OutDegree(3) != 1 {
		t.Error("degree mismatch")
	}
}

func TestHasEdge(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 4, 1}, {0, 2, 1}, {3, 3, 1}})
	cases := []struct {
		s, d ID
		want bool
	}{
		{0, 2, true}, {0, 4, true}, {0, 3, false}, {2, 0, false}, {3, 3, true},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.s, c.d); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.s, c.d, got, c.want)
		}
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(7, 3)
	g := b.MustBuild()
	if g.NumVertices() != 8 {
		t.Fatalf("NumVertices = %d, want 8", g.NumVertices())
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3).Dedup()
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(0, 1, 9)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if w := g.OutWeights(0)[0]; w != 5 {
		t.Errorf("dedup kept weight %g, want first occurrence 5", w)
	}
}

// TestBuildKeepsInputOrderAmongParallelEdges: Build sorts by (src, dst) with
// stable passes, so edges that tie keep the order they were added in — in
// both adjacency directions — Dedup's survivor is the first one added, and
// the builder's own edge list is left as the caller wrote it.
func TestBuildKeepsInputOrderAmongParallelEdges(t *testing.T) {
	const n, m = 7, 600 // ~12 parallel edges per (src, dst) pair
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder(n)
	added := make([]Edge, m)
	for i := range added {
		added[i] = Edge{Src: ID(rng.Intn(n)), Dst: ID(rng.Intn(n)), Weight: float64(i)}
		b.AddWeightedEdge(added[i].Src, added[i].Dst, added[i].Weight)
	}
	g := b.MustBuild()
	for i, e := range added {
		if b.ends[2*i] != e.Src || b.ends[2*i+1] != e.Dst || b.w[i] != e.Weight {
			t.Fatal("Build reordered the builder's edges")
		}
	}
	for v := ID(0); v < n; v++ {
		for _, dir := range []struct {
			ns []ID
			ws []float64
		}{{g.OutNeighbors(v), g.OutWeights(v)}, {g.InNeighbors(v), g.InWeights(v)}} {
			for i := 1; i < len(dir.ns); i++ {
				if dir.ns[i-1] > dir.ns[i] || (dir.ns[i-1] == dir.ns[i] && dir.ws[i-1] > dir.ws[i]) {
					t.Fatalf("vertex %d: neighbours %v weights %v: want ascending ids, ties in input order",
						v, dir.ns, dir.ws)
				}
			}
		}
	}
	first := map[[2]ID]float64{}
	for i := m - 1; i >= 0; i-- {
		first[[2]ID{added[i].Src, added[i].Dst}] = added[i].Weight
	}
	d := b.Dedup().MustBuild()
	if d.NumEdges() != len(first) {
		t.Fatalf("Dedup kept %d edges of %d distinct pairs", d.NumEdges(), len(first))
	}
	for _, e := range d.Edges() {
		if want := first[[2]ID{e.Src, e.Dst}]; e.Weight != want {
			t.Fatalf("Dedup kept %d→%d weight %g, the first added was %g", e.Src, e.Dst, e.Weight, want)
		}
	}
}

func TestBuilderNoSelfLoops(t *testing.T) {
	b := NewBuilder(2).NoSelfLoops()
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if g.NumEdges() != 1 || g.HasEdge(0, 0) {
		t.Fatalf("self-loop survived: %d edges", g.NumEdges())
	}
}

func TestDuplicatesKeptByDefault(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	if g := b.MustBuild(); g.NumEdges() != 2 {
		t.Fatalf("duplicates should be kept, got %d edges", g.NumEdges())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{2, 0, 1.5}, {0, 1, 1}, {1, 2, 2}, {0, 2, 3}}
	g := mustGraph(t, 3, in)
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("Edges() returned %d, want %d", len(out), len(in))
	}
	for _, e := range out {
		found := false
		for _, orig := range in {
			if orig == e {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected edge %+v", e)
		}
	}
}

// Property: building from any random edge set yields a graph that validates,
// preserves the edge multiset, and has matching in/out views.
func TestBuildProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%64 + 1
		m := int(mRaw) % 512
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{
				Src:    ID(rng.Intn(n)),
				Dst:    ID(rng.Intn(n)),
				Weight: float64(rng.Intn(9) + 1),
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		if g.Validate() != nil || g.NumEdges() != m {
			return false
		}
		// Each edge must appear in both views with its weight.
		type key struct {
			s, d ID
			w    float64
		}
		outCount := map[key]int{}
		for v := 0; v < n; v++ {
			ns, ws := g.OutNeighbors(ID(v)), g.OutWeights(ID(v))
			for i := range ns {
				outCount[key{ID(v), ns[i], ws[i]}]++
			}
		}
		inCount := map[key]int{}
		for v := 0; v < n; v++ {
			ns, ws := g.InNeighbors(ID(v)), g.InWeights(ID(v))
			for i := range ns {
				inCount[key{ns[i], ID(v), ws[i]}]++
			}
		}
		want := map[key]int{}
		for _, e := range edges {
			want[key{e.Src, e.Dst, e.Weight}]++
		}
		return reflect.DeepEqual(outCount, want) && reflect.DeepEqual(inCount, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of out-degrees == sum of in-degrees == edge count.
func TestDegreeSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		b := NewBuilder(n)
		m := rng.Intn(300)
		for i := 0; i < m; i++ {
			b.AddEdge(ID(rng.Intn(n)), ID(rng.Intn(n)))
		}
		g := b.MustBuild()
		outSum, inSum := 0, 0
		for v := 0; v < n; v++ {
			outSum += g.OutDegree(ID(v))
			inSum += g.InDegree(ID(v))
		}
		return outSum == m && inSum == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
