package gen

import (
	"testing"
	"testing/quick"

	"cyclops/internal/graph"
)

func TestPowerLawDeterministic(t *testing.T) {
	a := PowerLaw(500, 4, 42)
	b := PowerLaw(500, 4, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if c := PowerLaw(500, 4, 43); c.Edges()[10] == ea[10] && c.Edges()[20] == ea[20] && c.Edges()[30] == ea[30] {
		t.Error("different seeds produced suspiciously identical graphs")
	}
}

func TestPowerLawSkew(t *testing.T) {
	g := PowerLaw(5000, 6, 1)
	s := graph.ComputeStats(g)
	if s.Vertices != 5000 {
		t.Fatalf("|V| = %d", s.Vertices)
	}
	// Preferential attachment must produce a skewed in-degree head.
	if s.MaxInDegree < 50 {
		t.Errorf("max in-degree = %d, expected a heavy head", s.MaxInDegree)
	}
	if s.MeanDegree < 4 || s.MeanDegree > 6.5 {
		t.Errorf("mean degree = %g, want ≈6", s.MeanDegree)
	}
}

func TestPowerLawDegenerate(t *testing.T) {
	if g := PowerLaw(0, 4, 1); g.NumVertices() != 0 {
		t.Error("n=0 must give empty graph")
	}
	if g := PowerLaw(1, 4, 1); g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Error("n=1 must give a single isolated vertex")
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 0.57, 0.19, 0.19, 7)
	if g.NumVertices() != 1024 {
		t.Fatalf("|V| = %d, want 1024", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 8*1024 {
		t.Fatalf("|E| = %d", g.NumEdges())
	}
	s := graph.ComputeStats(g)
	if s.GiniOut < 0.3 {
		t.Errorf("RMAT gini = %g, expected skew", s.GiniOut)
	}
	for _, e := range g.Edges() {
		if e.Src == e.Dst {
			t.Fatal("RMAT must drop self-loops")
		}
	}
}

func TestErdosRenyiUniform(t *testing.T) {
	g := ErdosRenyi(2000, 10000, 3)
	s := graph.ComputeStats(g)
	if s.GiniOut > 0.35 {
		t.Errorf("ER gini = %g, expected near-uniform", s.GiniOut)
	}
}

func TestRoadStructure(t *testing.T) {
	g := Road(20, 30, 0, 5)
	if g.NumVertices() != 600 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	// Interior lattice edges: horizontal 20*29, vertical 19*30, both directed
	// both ways.
	want := 2 * (20*29 + 19*30)
	if g.NumEdges() != want {
		t.Fatalf("|E| = %d, want %d", g.NumEdges(), want)
	}
	// All weights positive (log-normal).
	for _, e := range g.Edges() {
		if e.Weight <= 0 {
			t.Fatalf("non-positive weight %g", e.Weight)
		}
	}
	// Symmetry: every edge has a reverse.
	for _, e := range g.Edges() {
		if !g.HasEdge(e.Dst, e.Src) {
			t.Fatalf("missing reverse of %d→%d", e.Src, e.Dst)
		}
	}
}

func TestCommunityLabels(t *testing.T) {
	g, labels := Community(10, 30, 3, 0, 11)
	if len(labels) != g.NumVertices() {
		t.Fatalf("labels len %d != |V| %d", len(labels), g.NumVertices())
	}
	// With degOut=0 every edge stays within its community.
	for _, e := range g.Edges() {
		if labels[e.Src] != labels[e.Dst] {
			t.Fatalf("edge %d→%d crosses communities %d/%d with degOut=0",
				e.Src, e.Dst, labels[e.Src], labels[e.Dst])
		}
	}
	// Graph must be symmetric (collaboration network).
	for _, e := range g.Edges() {
		if !g.HasEdge(e.Dst, e.Src) {
			t.Fatal("community graph must be symmetric")
		}
	}
}

func TestBipartiteSides(t *testing.T) {
	users, items := 100, 20
	g := Bipartite(users, items, 5, 13)
	if g.NumVertices() != users+items {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	for _, e := range g.Edges() {
		srcUser := int(e.Src) < users
		dstUser := int(e.Dst) < users
		if srcUser == dstUser {
			t.Fatalf("edge %d→%d does not cross sides", e.Src, e.Dst)
		}
		if e.Weight < 1 || e.Weight > 5 {
			t.Fatalf("rating %g outside [1,5]", e.Weight)
		}
		if !g.HasEdge(e.Dst, e.Src) {
			t.Fatal("ratings must be mirrored")
		}
	}
}

func TestDatasetRegistry(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("want 7 datasets, got %v", names)
	}
	for _, name := range names {
		g, meta, err := Dataset(name, 0.1, 1)
		if err != nil {
			t.Fatalf("Dataset(%s): %v", name, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", name)
		}
		if meta.PaperV == 0 || meta.PaperE == 0 {
			t.Errorf("%s: missing paper sizes", name)
		}
		if meta.Name != name {
			t.Errorf("meta name %q != %q", meta.Name, name)
		}
		if name == "dblp" && meta.Labels == nil {
			t.Error("dblp must carry planted labels")
		}
	}
}

func TestDatasetErrors(t *testing.T) {
	if _, _, err := Dataset("nope", 1, 1); err == nil {
		t.Error("unknown dataset must error")
	}
	if _, _, err := Dataset("gweb", 0, 1); err == nil {
		t.Error("zero scale must error")
	}
	if _, _, err := Dataset("gweb", -1, 1); err == nil {
		t.Error("negative scale must error")
	}
}

func TestDatasetScaleMonotone(t *testing.T) {
	small, _, err := Dataset("amazon", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := Dataset("amazon", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumVertices() >= big.NumVertices() {
		t.Fatalf("scale not monotone: %d vs %d", small.NumVertices(), big.NumVertices())
	}
}

// Property: all generators produce valid graphs for arbitrary small seeds.
func TestGeneratorsAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		gs := []*graph.Graph{
			PowerLaw(200, 3, seed),
			ErdosRenyi(100, 300, seed),
			Road(8, 9, 0.05, seed),
			Bipartite(40, 8, 3, seed),
		}
		cg, _ := Community(5, 10, 2, 1, seed)
		gs = append(gs, cg)
		for _, g := range gs {
			if g.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
