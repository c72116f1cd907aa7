package algorithms

import (
	"testing"
	"testing/quick"

	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				b.AddEdge(graph.ID(u), graph.ID(v))
			}
		}
	}
	return b.MustBuild()
}

func TestTrianglesRefKnown(t *testing.T) {
	// K4 has C(4,3) = 4 triangles; K5 has 10.
	if got := TrianglesRef(completeGraph(4)); got != 4 {
		t.Fatalf("K4 triangles = %d", got)
	}
	if got := TrianglesRef(completeGraph(5)); got != 10 {
		t.Fatalf("K5 triangles = %d", got)
	}
	// A 4-cycle has none.
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.ID(i), graph.ID((i+1)%4))
		b.AddEdge(graph.ID((i+1)%4), graph.ID(i))
	}
	if got := TrianglesRef(b.MustBuild()); got != 0 {
		t.Fatalf("C4 triangles = %d", got)
	}
}

// idListCodec frames the adjacency lists the triangle programs publish: a
// 4-byte count, then 4 bytes per id. The graph package owns no codec for
// []graph.ID, so the tests name this one.
type idListCodec struct{}

func (idListCodec) EncodedSize(m []graph.ID) int { return 4 + 4*len(m) }

func (idListCodec) Append(dst []byte, m []graph.ID) []byte {
	dst = graph.AppendUint32(dst, uint32(len(m)))
	for _, id := range m {
		dst = graph.AppendUint32(dst, uint32(id))
	}
	return dst
}

func (idListCodec) Decode(src []byte) ([]graph.ID, int, error) {
	n, err := graph.Uint32At(src)
	if err != nil || len(src) < 4+4*int(n) {
		return nil, 0, graph.ErrShortBuffer
	}
	out := make([]graph.ID, n)
	for i := range out {
		v, _ := graph.Uint32At(src[4+4*i:])
		out[i] = graph.ID(v)
	}
	return out, 4 + 4*int(n), nil
}

func TestTrianglesEnginesMatch(t *testing.T) {
	g := symmetrize(gen.ErdosRenyi(200, 900, 33))
	want := TrianglesRef(g)
	if want == 0 {
		t.Fatal("test graph should contain triangles")
	}

	ce, err := cyclops.New[int64, []graph.ID](g, TrianglesCyclops{}, cyclops.Config[int64, []graph.ID]{
		Cluster:  cluster.Flat(3, 2),
		MsgCodec: idListCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := ce.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := SumCounts(ce.Values()); got != want {
		t.Fatalf("cyclops triangles = %d, want %d", got, want)
	}
	// Single superstep: the whole count comes from the initial view.
	if len(ctr.Steps) != 1 {
		t.Fatalf("cyclops took %d supersteps, want 1", len(ctr.Steps))
	}

	be, err := bsp.New[int64, []graph.ID](g, TrianglesBSP{}, bsp.Config[int64, []graph.ID]{
		Cluster:  cluster.Flat(3, 2),
		MsgCodec: idListCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Run(); err != nil {
		t.Fatal(err)
	}
	if got := SumCounts(be.Values()); got != want {
		t.Fatalf("bsp triangles = %d, want %d", got, want)
	}
}

// Property: engines agree with the reference on random symmetric graphs.
func TestTrianglesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := symmetrize(gen.ErdosRenyi(50, 250, seed))
		want := TrianglesRef(g)
		e, err := cyclops.New[int64, []graph.ID](g, TrianglesCyclops{}, cyclops.Config[int64, []graph.ID]{
			Cluster: cluster.Flat(2, 2), MsgCodec: idListCodec{},
		})
		if err != nil {
			return false
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		return SumCounts(e.Values()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectCount(t *testing.T) {
	a := []graph.ID{1, 3, 5, 7}
	b := []graph.ID{2, 3, 5, 9}
	if got := intersectCount(a, b); got != 2 {
		t.Fatalf("intersect = %d", got)
	}
	if intersectCount(nil, a) != 0 || intersectCount(a, nil) != 0 {
		t.Fatal("empty intersection must be 0")
	}
}

func TestContainsID(t *testing.T) {
	s := []graph.ID{2, 4, 6}
	for _, c := range []struct {
		x    graph.ID
		want bool
	}{{2, true}, {4, true}, {6, true}, {1, false}, {5, false}, {7, false}} {
		if containsID(s, c.x) != c.want {
			t.Fatalf("containsID(%v, %d) != %v", s, c.x, c.want)
		}
	}
	if containsID(nil, 1) {
		t.Fatal("empty slice contains nothing")
	}
}
