package algorithms

import (
	"math"
	"math/rand"
	"testing"

	"cyclops/internal/aggregate"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

const prIters = 12

func approxEqual(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > tol {
			t.Fatalf("%s: vertex %d = %g, want %g (tol %g)", name, v, got[v], want[v], tol)
		}
	}
}

func TestPageRankAllEnginesMatchReference(t *testing.T) {
	g := gen.PowerLaw(400, 5, 77)
	want := PageRankRef(g, prIters)

	// BSP: superstep 0 seeds, supersteps 1..T compute iterations 1..T.
	be, err := bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
		Cluster:       cluster.Flat(2, 2),
		MaxSupersteps: prIters + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Run(); err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "bsp", be.Values(), want, 1e-12)

	// Cyclops: superstep k computes iteration k+1.
	ce, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
		Cluster:       cluster.Flat(2, 2),
		MaxSupersteps: prIters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "cyclops", ce.Values(), want, 1e-12)

	// CyclopsMT must agree bit-for-bit with flat Cyclops.
	me, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
		Cluster:       cluster.MT(2, 4, 2),
		MaxSupersteps: prIters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := me.Run(); err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "cyclopsmt", me.Values(), want, 1e-12)

	// GAS computes iteration k+1 at superstep k too.
	ge, err := gas.New[PRValue, float64](g, NewPageRankGAS(g, prIters, 0), gas.Config[PRValue, float64]{
		Cluster:       cluster.Flat(4, 1),
		MaxSupersteps: prIters,
		ValCodec:      PRValueCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ge.Run(); err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "gas", Ranks(ge.Values()), want, 1e-12)
}

func TestPageRankCyclopsSendsFarFewerMessagesThanBSP(t *testing.T) {
	// The headline claim (§1, Figure 10(3)): with convergence detection on,
	// Cyclops eliminates redundant traffic from converged vertices.
	g := gen.PowerLaw(2000, 6, 3)
	const eps = 1e-8

	be, _ := bsp.New[float64, float64](g, PageRankBSP{Eps: eps}, bsp.Config[float64, float64]{
		Cluster:       cluster.Flat(4, 1),
		MaxSupersteps: 60,
		Halt:          aggregate.GlobalErrorHalt(ErrorAggregator, g.NumVertices(), eps),
		Equal:         func(a, b float64) bool { return a == b },
	})
	if _, err := be.Run(); err != nil {
		t.Fatal(err)
	}
	ce, _ := cyclops.New[float64, float64](g, PageRankCyclops{Eps: eps}, cyclops.Config[float64, float64]{
		Cluster:       cluster.Flat(4, 1),
		MaxSupersteps: 60,
	})
	if _, err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	bm, cm := be.TransportStats().Messages, ce.TransportStats().Messages
	if cm*2 > bm {
		t.Fatalf("cyclops messages %d not ≪ bsp messages %d", cm, bm)
	}
	// And the results still agree closely (they terminate under different
	// detectors — global vs local error — so agreement is approximate).
	approxEqual(t, "converged", ce.Values(), be.Values(), 1e-4)
}

func TestSSSPAllEnginesExact(t *testing.T) {
	g := gen.Road(15, 15, 0.05, 9)
	want := SSSPRef(g, 0)

	be, _ := bsp.New[float64, float64](g, SSSPBSP{Source: 0}, bsp.Config[float64, float64]{
		Cluster:       cluster.Flat(3, 2),
		MaxSupersteps: 500,
	})
	if _, err := be.Run(); err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "bsp", be.Values(), want, 0)

	ce, _ := cyclops.New[float64, float64](g, SSSPCyclops{Source: 0}, cyclops.Config[float64, float64]{
		Cluster:       cluster.Flat(3, 2),
		MaxSupersteps: 500,
	})
	if _, err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "cyclops", ce.Values(), want, 0)

	me, _ := cyclops.New[float64, float64](g, SSSPCyclops{Source: 0}, cyclops.Config[float64, float64]{
		Cluster:       cluster.MT(3, 4, 2),
		MaxSupersteps: 500,
	})
	if _, err := me.Run(); err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "cyclopsmt", me.Values(), want, 0)

	ge, _ := gas.New[float64, float64](g, SSSPGAS{Source: 0}, gas.Config[float64, float64]{
		Cluster:       cluster.Flat(3, 1),
		MaxSupersteps: 500,
	})
	if _, err := ge.Run(); err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "gas", ge.Values(), want, 0)
}

func TestSSSPUnreachableStaysInfinite(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2)
	// Vertices 2,3 unreachable.
	b.AddWeightedEdge(2, 3, 1)
	g := b.MustBuild()
	ce, _ := cyclops.New[float64, float64](g, SSSPCyclops{Source: 0}, cyclops.Config[float64, float64]{})
	if _, err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	vals := ce.Values()
	if vals[1] != 2 || !math.IsInf(vals[2], 1) || !math.IsInf(vals[3], 1) {
		t.Fatalf("distances = %v", vals)
	}
}

// TestSSSPWeightEdgeCases pins that every engine's min keeps SSSPRef's
// d < best semantics bit for bit: a NaN-weighted edge is never taken — vertex
// 3 hears NaN and 3 in the same superstep and keeps 3, vertex 4 stays +Inf —
// and a −0 weight ties with a +0 path to the same +0 distance (vertex 5).
func TestSSSPWeightEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	b := graph.NewBuilder(7)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(0, 2, 1)
	b.AddWeightedEdge(1, 3, math.NaN())
	b.AddWeightedEdge(2, 3, 2)
	b.AddWeightedEdge(0, 4, math.NaN())
	b.AddWeightedEdge(0, 5, negZero)
	b.AddWeightedEdge(0, 6, 0)
	b.AddWeightedEdge(6, 5, 0)
	b.AddWeightedEdge(4, 6, 1)
	g := b.MustBuild()
	want := SSSPRef(g, 0)
	if want[3] != 3 || !math.IsInf(want[4], 1) || want[5] != 0 || math.Signbit(want[5]) {
		t.Fatalf("SSSPRef = %v: the graph no longer exercises the edge cases", want)
	}

	bitEqual := func(name string, got []float64) {
		t.Helper()
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s: vertex %d = %g (%#x), want %g (%#x)",
					name, v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
			}
		}
	}
	for _, shape := range []cluster.Config{cluster.Flat(1, 1), cluster.Flat(3, 1), cluster.MT(2, 2, 2)} {
		be, err := bsp.New[float64, float64](g, SSSPBSP{Source: 0}, bsp.Config[float64, float64]{Cluster: shape})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.Run(); err != nil {
			t.Fatal(err)
		}
		bitEqual("bsp", be.Values())

		ce, err := cyclops.New[float64, float64](g, SSSPCyclops{Source: 0}, cyclops.Config[float64, float64]{Cluster: shape})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ce.Run(); err != nil {
			t.Fatal(err)
		}
		bitEqual("cyclops", ce.Values())

		ge, err := gas.New[float64, float64](g, SSSPGAS{Source: 0}, gas.Config[float64, float64]{Cluster: shape})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ge.Run(); err != nil {
			t.Fatal(err)
		}
		bitEqual("gas", ge.Values())
	}
}

const cdIters = 15

func TestCDAllEnginesExact(t *testing.T) {
	g, planted := gen.Community(12, 40, 3, 1, 5)
	want := CDRef(g, cdIters)

	be, _ := bsp.New[int64, int64](g, CDBSP{}, bsp.Config[int64, int64]{
		Cluster:       cluster.Flat(2, 2),
		MaxSupersteps: cdIters + 1,
	})
	if _, err := be.Run(); err != nil {
		t.Fatal(err)
	}
	ce, _ := cyclops.New[int64, int64](g, CDCyclops{}, cyclops.Config[int64, int64]{
		Cluster:       cluster.Flat(2, 2),
		MaxSupersteps: cdIters,
	})
	if _, err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	me, _ := cyclops.New[int64, int64](g, CDCyclops{}, cyclops.Config[int64, int64]{
		Cluster:       cluster.MT(2, 3, 2),
		MaxSupersteps: cdIters,
	})
	if _, err := me.Run(); err != nil {
		t.Fatal(err)
	}
	bl, cl, ml := be.Values(), ce.Values(), me.Values()
	for v := range want {
		if bl[v] != want[v] || cl[v] != want[v] || ml[v] != want[v] {
			t.Fatalf("vertex %d: ref=%d bsp=%d cyclops=%d mt=%d",
				v, want[v], bl[v], cl[v], ml[v])
		}
	}
	// Detected communities should align with the planted ones.
	if acc := CommunityAccuracy(g, cl, planted); acc < 0.8 {
		t.Errorf("community accuracy = %g", acc)
	}
}

func TestCDHaltStopsBSP(t *testing.T) {
	// Synchronous label propagation can oscillate forever on sparse
	// symmetric graphs, so use disjoint cliques, where it provably
	// converges in three rounds.
	b := graph.NewBuilder(20)
	for c := 0; c < 2; c++ {
		for u := 0; u < 10; u++ {
			for v := 0; v < 10; v++ {
				if u != v {
					b.AddEdge(graph.ID(c*10+u), graph.ID(c*10+v))
				}
			}
		}
	}
	g := b.MustBuild()
	be, _ := bsp.New[int64, int64](g, CDBSP{}, bsp.Config[int64, int64]{
		Cluster:       cluster.Flat(2, 1),
		MaxSupersteps: 100,
		Halt:          CDHalt(),
	})
	trace, err := be.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Steps) >= 100 {
		t.Fatal("CDHalt never fired")
	}
}

func TestMostFrequentTieBreaking(t *testing.T) {
	labels := []int64{5, 3, 5, 3}
	got := mostFrequent(9, func(i int) int64 { return labels[i] }, len(labels))
	if got != 3 {
		t.Fatalf("tie broke to %d, want 3", got)
	}
	if mostFrequent(9, nil, 0) != 9 {
		t.Fatal("no neighbors must keep own label")
	}
}

func TestALSEnginesMatchReference(t *testing.T) {
	g := gen.Bipartite(60, 12, 5, 21)
	cfg := ALSConfig{Users: 60, D: 4, Lambda: 0.05, Sweeps: 3}
	want := ALSRef(g, cfg)

	ce, err := cyclops.New[[]float64, []float64](g, ALSCyclops{Cfg: cfg}, cyclops.Config[[]float64, []float64]{
		Cluster:       cluster.Flat(2, 2),
		MaxSupersteps: cfg.TotalSupersteps(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	cv := ce.Values()
	for v := range want {
		for i := range want[v] {
			if math.Abs(cv[v][i]-want[v][i]) > 1e-9 {
				t.Fatalf("cyclops vertex %d dim %d: %g vs %g", v, i, cv[v][i], want[v][i])
			}
		}
	}

	be, err := bsp.New[[]float64, ALSMsg](g, ALSBSP{Cfg: cfg}, bsp.Config[[]float64, ALSMsg]{
		Cluster:       cluster.Flat(2, 2),
		MaxSupersteps: cfg.TotalSupersteps() + 4,
		MsgCodec:      ALSMsgCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Run(); err != nil {
		t.Fatal(err)
	}
	bv := be.Values()
	for v := range want {
		for i := range want[v] {
			if math.Abs(bv[v][i]-want[v][i]) > 1e-6 {
				t.Fatalf("bsp vertex %d dim %d: %g vs %g", v, i, bv[v][i], want[v][i])
			}
		}
	}
}

func TestALSRMSEDecreasesWithSweeps(t *testing.T) {
	g := gen.Bipartite(150, 25, 8, 4)
	base := ALSConfig{Users: 150, D: 6, Lambda: 0.05}
	var prev = math.Inf(1)
	for _, sweeps := range []int{1, 3, 6} {
		cfg := base
		cfg.Sweeps = sweeps
		rmse := RMSE(g, cfg.Users, ALSRef(g, cfg))
		if rmse > prev+1e-9 {
			t.Fatalf("RMSE rose from %g to %g at %d sweeps", prev, rmse, sweeps)
		}
		prev = rmse
	}
	if prev > 1.2 {
		t.Errorf("final RMSE = %g; ALS is not fitting", prev)
	}
}

func TestInitVecDeterministicAndBounded(t *testing.T) {
	a := InitVec(42, 8)
	b := InitVec(42, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitVec must be deterministic")
		}
		if a[i] <= 0 || a[i] >= 1 {
			t.Fatalf("InitVec[%d] = %g outside (0,1)", i, a[i])
		}
	}
	c := InitVec(43, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different ids must give different vectors")
	}
}

func TestPageRankRefEmptyGraph(t *testing.T) {
	if got := PageRankRef(graph.NewBuilder(0).MustBuild(), 3); got != nil {
		t.Fatalf("empty graph ranks = %v", got)
	}
}

func TestL1Distance(t *testing.T) {
	if d := L1Distance([]float64{1, 2}, []float64{0, 4}); d != 3 {
		t.Fatalf("L1 = %g", d)
	}
}

// smallWorld is a Watts–Strogatz graph: a ring lattice where every vertex
// links to its k nearest neighbours on each side, each link rewired to a
// random endpoint with probability beta. Edges are bidirectional.
func smallWorld(n, k int, beta float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n).Dedup().NoSelfLoops()
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			u := (v + j) % n
			if rng.Float64() < beta {
				if u = rng.Intn(n); u == v {
					continue
				}
			}
			b.AddEdge(graph.ID(v), graph.ID(u))
			b.AddEdge(graph.ID(u), graph.ID(v))
		}
	}
	return b.MustBuild()
}

// PageRank over a small-world graph: the third structural regime (high
// clustering, low diameter) alongside power-law and lattice.
func TestPageRankOnSmallWorld(t *testing.T) {
	g := smallWorld(300, 3, 0.1, 12)
	want := PageRankRef(g, prIters)
	ce, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
		Cluster:       cluster.MT(3, 2, 2),
		MaxSupersteps: prIters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "smallworld", ce.Values(), want, 1e-12)
	// Small-world graphs are near-regular: coreness is uniform-ish and the
	// h-index iteration still matches peeling.
	coreWant := CorenessRef(g)
	ke, err := cyclops.New[int64, int64](g, CorenessCyclops{}, cyclops.Config[int64, int64]{
		Cluster: cluster.Flat(2, 2), MaxSupersteps: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ke.Run(); err != nil {
		t.Fatal(err)
	}
	got := ke.Values()
	for v := range coreWant {
		if got[v] != coreWant[v] {
			t.Fatalf("coreness mismatch at %d", v)
		}
	}
}
