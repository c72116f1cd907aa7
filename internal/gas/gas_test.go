package gas

import (
	"math"
	"testing"
	"testing/quick"

	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

// The GAS PageRank here stores value = rank/outDegree (the "share"), so
// Gather can read it directly from the mirror cache. referencePR computes
// the same quantity sequentially.
type prShare struct {
	n int
}

func (p prShare) Init(id graph.ID, g *graph.Graph) (float64, bool) {
	d := g.OutDegree(id)
	if d == 0 {
		d = 1
	}
	return (1.0 / float64(g.NumVertices())) / float64(d), true
}

func (p prShare) Gather(vals []float64, srcs []int32, _ []float64) float64 {
	sum := vals[srcs[0]]
	for _, s := range srcs[1:] {
		sum = p.Sum(sum, vals[s])
	}
	return sum
}

func (prShare) Sum(a, b float64) float64 { return a + b }

func (p prShare) Apply(id graph.ID, old float64, acc float64, hasAcc bool, step int) (float64, bool) {
	sum := 0.0
	if hasAcc {
		sum = acc
	}
	rank := 0.15/float64(p.n) + 0.85*sum
	d := 1.0
	// outDegree is static; reconstruct share. Degree 0 treated as 1.
	// (The engine has no per-copy degree API; programs close over the graph.)
	return rank / d, step+1 < 10
}

// referenceShares runs 10 iterations of the share recurrence sequentially,
// treating value as share with outDegree folded by the caller.
func referenceShares(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	share := make([]float64, n)
	for v := range share {
		d := g.OutDegree(graph.ID(v))
		if d == 0 {
			d = 1
		}
		share[v] = (1.0 / float64(n)) / float64(d)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(graph.ID(v)) {
				sum += share[u]
			}
			rank := 0.15/float64(n) + 0.85*sum
			next[v] = rank // d folded as 1 to mirror prShare.Apply
		}
		copy(share, next)
	}
	return share
}

func TestGASPageRankMatchesReference(t *testing.T) {
	g := gen.PowerLaw(200, 4, 5)
	e, err := New[float64, float64](g, prShare{n: g.NumVertices()}, Config[float64, float64]{
		Cluster:       cluster.Flat(4, 1),
		MaxSupersteps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := referenceShares(g, 10)
	got := e.Values()
	for v := range want {
		// The un-normalised share recurrence grows without bound, so compare
		// with relative tolerance (summation order differs across workers).
		tol := 1e-12 * math.Max(1, math.Abs(want[v]))
		if math.Abs(got[v]-want[v]) > tol {
			t.Fatalf("vertex %d: %g, want %g", v, got[v], want[v])
		}
	}
}

func TestFiveMessagesPerMirrorPerIteration(t *testing.T) {
	// All vertices active, run exactly 1 superstep: messages must be
	// gather(2) + apply(1) + scatter req(1) per mirror, plus activation
	// returns bounded by mirrors (≤1 per mirror).
	g := gen.PowerLaw(300, 5, 9)
	e, err := New[float64, float64](g, prShare{n: g.NumVertices()}, Config[float64, float64]{
		Cluster:       cluster.Flat(6, 1),
		MaxSupersteps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	mirrors := e.Mirrors()
	msgs := e.TransportStats().Messages
	if mirrors == 0 {
		t.Fatal("expected mirrors on a 6-way cut")
	}
	low, high := 4*mirrors, 5*mirrors
	if msgs < low || msgs > high {
		t.Fatalf("messages = %d for %d mirrors; want within [%d,%d] (≈5 per mirror)",
			msgs, mirrors, low, high)
	}
}

func TestGreedyCutFewerMirrorsThanRandom(t *testing.T) {
	g := gen.PowerLaw(1000, 5, 13)
	random, err := New[float64, float64](g, prShare{n: g.NumVertices()}, Config[float64, float64]{
		Cluster: cluster.Flat(8, 1), Partitioner: RandomVertexCut{},
	})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := New[float64, float64](g, prShare{n: g.NumVertices()}, Config[float64, float64]{
		Cluster: cluster.Flat(8, 1), Partitioner: GreedyVertexCut{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Mirrors() >= random.Mirrors() {
		t.Fatalf("greedy mirrors %d !< random mirrors %d", greedy.Mirrors(), random.Mirrors())
	}
}

func TestEdgePartitionersCoverAllEdges(t *testing.T) {
	covers := func(p EdgePartitioner, g *graph.Graph, k int) bool {
		out := p.PartitionEdges(g, k)
		if len(out) != g.NumEdges() {
			return false
		}
		for _, w := range out {
			if w < 0 || w >= k {
				return false
			}
		}
		return true
	}
	// Greedy also runs past the 64 workers its presence bitset records.
	f := func(seed int64, kRaw uint8) bool {
		k, wide := int(kRaw)%8+1, 65+int(kRaw)%16
		g := gen.ErdosRenyi(60, 200, seed)
		return covers(RandomVertexCut{}, g, k) && covers(GreedyVertexCut{}, g, k) &&
			covers(GreedyVertexCut{}, g, wide)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedVerticesGetMasters(t *testing.T) {
	b := graph.NewBuilder(10) // vertices 5..9 isolated
	for v := 0; v < 5; v++ {
		b.AddEdge(graph.ID(v), graph.ID((v+1)%5))
	}
	g := b.MustBuild()
	e, err := New[float64, float64](g, prShare{n: 10}, Config[float64, float64]{
		Cluster: cluster.Flat(3, 1), MaxSupersteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	vals := e.Values()
	if len(vals) != 10 {
		t.Fatalf("values len %d", len(vals))
	}
	for v := 5; v < 10; v++ {
		if vals[v] == 0 {
			t.Fatalf("isolated vertex %d has no master value", v)
		}
	}
}

func TestReplicationFactorConsistency(t *testing.T) {
	g := gen.PowerLaw(500, 4, 3)
	e, _ := New[float64, float64](g, prShare{n: g.NumVertices()}, Config[float64, float64]{
		Cluster: cluster.Flat(6, 1),
	})
	rf := e.ReplicationFactor()
	if rf <= 0 || rf > 6 {
		t.Fatalf("replication factor = %g", rf)
	}
	if math.Abs(rf-float64(e.Mirrors())/float64(g.NumVertices())) > 1e-12 {
		t.Fatal("ReplicationFactor disagrees with Mirrors")
	}
}

func TestInactiveStop(t *testing.T) {
	// iters=1: Apply never activates, so the run stops after one superstep.
	g := gen.PowerLaw(100, 3, 1)
	e, _ := New[float64, float64](g, prShare{n: g.NumVertices()}, Config[float64, float64]{
		Cluster: cluster.Flat(2, 1), MaxSupersteps: 50,
	})
	// prShare activates until step 10.
	trace, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Steps) != 10 {
		t.Fatalf("steps = %d, want 10", len(trace.Steps))
	}
}

func TestRequiredArguments(t *testing.T) {
	if _, err := New[float64, float64](nil, prShare{}, Config[float64, float64]{}); err == nil {
		t.Error("nil graph must error")
	}
	g := gen.ErdosRenyi(10, 20, 1)
	if _, err := New[float64, float64](g, nil, Config[float64, float64]{}); err == nil {
		t.Error("nil program must error")
	}
}
