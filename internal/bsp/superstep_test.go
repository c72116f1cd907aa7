package bsp_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// batchGraphs are random weighted graphs, parallel edges and self-loops
// included, plus a small directed power-law graph.
func batchGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	var graphs []*graph.Graph
	for i := range 6 {
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		n := 30 + rng.Intn(371)
		var edges []graph.Edge
		for range n + rng.Intn(3*n) {
			edges = append(edges, graph.Edge{Src: graph.ID(rng.Intn(n)), Dst: graph.ID(rng.Intn(n)), Weight: float64(1 + rng.Intn(9))})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	g, _, err := gen.Dataset("gweb", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	return append(graphs, g)
}

// TestSendBatchesNeverGrow: Run sizes every SND batch to its worker's
// out-edges per destination and carves every inbox row from one shared
// array by in-degree. PageRank, SSSP and CC message each out-neighbour at
// most once per superstep, so after a run each batch capacity still equals
// its bound and no inbox row has left the shared array.
func TestSendBatchesNeverGrow(t *testing.T) {
	cuts := []partition.Partitioner{partition.Hash{}, partition.Multilevel{}}
	shapes := []cluster.Config{cluster.Flat(2, 1), cluster.Flat(3, 1)}
	for i, g := range batchGraphs(t) {
		for _, cut := range cuts {
			for _, shape := range shapes {
				name := fmt.Sprintf("graph %d, %s, %d workers", i, cut.Name(), shape.Workers())
				checkBatches(t, name+", PageRank", g, algorithms.PageRankBSP{}, bsp.Config[float64, float64]{Cluster: shape, Partitioner: cut, MaxSupersteps: 11})
				checkBatches(t, name+", SSSP", g, algorithms.SSSPBSP{Source: 0}, bsp.Config[float64, float64]{Cluster: shape, Partitioner: cut, MaxSupersteps: 500})
				checkBatches(t, name+", CC", g, algorithms.CCBSP{}, bsp.Config[int64, int64]{Cluster: shape, Partitioner: cut, MaxSupersteps: 500})
			}
		}
	}
}

// checkBatches runs prog to its end and fails t if a send batch grew or an
// inbox row spilled.
func checkBatches[V, M any](t *testing.T, name string, g *graph.Graph, prog bsp.Program[V, M], cfg bsp.Config[V, M]) {
	t.Helper()
	e, err := bsp.New[V, M](g, prog, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := e.BatchGrowth(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if err := e.InboxSpill(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// spillProg records every message it receives, in arrival order. In
// supersteps 0 and 1 it broadcasts to its out-neighbours and every fifth
// vertex also sends two messages each to vertices 0 (in-degree 0) and 1
// (in-degree 1), neighbours or not, so both get more than their in-degree.
type spillProg struct{}

func (spillProg) Init(graph.ID, *graph.Graph) []float64 { return nil }

func (spillProg) Compute(ctx *bsp.Context[[]float64, float64], msgs []float64) {
	ctx.SetValue(append(ctx.Value(), msgs...))
	if s := ctx.Superstep(); s < 2 {
		v := ctx.Vertex()
		ctx.SendToNeighbors(spillShare(v, s))
		if v%5 == 0 {
			for _, hot := range []graph.ID{0, 1, 0, 1} {
				ctx.SendTo(hot, spillExtra(v, s, hot))
			}
		}
	}
	ctx.VoteToHalt()
}

// The payloads are irrational-ish, so a float sum of them depends on the
// order it is taken in.
func spillShare(v graph.ID, s int) float64 { return 1/float64(v+3) + float64(s) }

func spillExtra(v graph.ID, s int, hot graph.ID) float64 {
	return math.Sqrt(float64(v) + float64(s) + float64(hot)/3)
}

// spillGraph is a random graph in which vertex 0 has no in-edge and vertex
// 1 only the edge 5 → 1.
func spillGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 150
	rng := rand.New(rand.NewSource(7))
	edges := []graph.Edge{{Src: 5, Dst: 1, Weight: 1}}
	for len(edges) < 4*n {
		if dst := graph.ID(rng.Intn(n)); dst > 1 {
			edges = append(edges, graph.Edge{Src: graph.ID(rng.Intn(n)), Dst: dst, Weight: 1})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// spillReference replays spillProg sequentially in the engine's delivery
// order: a receiver drains its senders' batches by worker, each in send
// order, and a Combiner folds a sender's messages to one vertex in send
// order into one.
func spillReference(g *graph.Graph, of []int, workers int, combine func(a, b float64) float64) [][]float64 {
	n := g.NumVertices()
	got := make([][]float64, n)
	inbox := make([][]float64, n)
	for s := 0; ; s++ {
		next := make([][]float64, n)
		for w := range workers {
			at := map[graph.ID]int{} // combined message's index in next[dst]
			send := func(dst graph.ID, m float64) {
				if i, ok := at[dst]; ok && combine != nil {
					next[dst][i] = combine(next[dst][i], m)
					return
				}
				at[dst] = len(next[dst])
				next[dst] = append(next[dst], m)
			}
			for v := range graph.ID(n) {
				if of[v] != w || (s > 0 && len(inbox[v]) == 0) {
					continue
				}
				got[v] = append(got[v], inbox[v]...)
				if s >= 2 {
					continue
				}
				for _, u := range g.OutNeighbors(v) {
					send(u, spillShare(v, s))
				}
				if v%5 == 0 {
					for _, hot := range []graph.ID{0, 1, 0, 1} {
						send(hot, spillExtra(v, s, hot))
					}
				}
			}
		}
		if s >= 2 {
			return got
		}
		inbox = next
	}
}

// TestInboxSpillKeepsDeliveryOrder: a vertex sent more messages than its
// in-degree spills to a slice of its own and still receives exactly what a
// sequential replay of the delivery order gives, message for message and
// bit for bit — with and without a Combiner, on both in-process queue
// modes and over TCP.
func TestInboxSpillKeepsDeliveryOrder(t *testing.T) {
	g := spillGraph(t)
	shape := cluster.Flat(3, 1)
	assign, err := partition.Hash{}.Partition(g, shape.Workers())
	if err != nil {
		t.Fatal(err)
	}
	sum := func(a, b float64) float64 { return a + b }
	for _, combine := range []func(a, b float64) float64{nil, sum} {
		want := spillReference(g, assign.Of, shape.Workers(), combine)
		if len(want[0]) <= g.InDegree(0) || len(want[1]) <= g.InDegree(1) {
			t.Fatalf("vertices 0 and 1 receive %d and %d messages: no spill", len(want[0]), len(want[1]))
		}
		for _, leg := range []struct {
			name      string
			perSender bool
			net       transport.Network
		}{{"global-queue", false, transport.InProcess}, {"per-sender", true, transport.InProcess}, {"tcp", false, transport.TCPLoopback}} {
			name := fmt.Sprintf("%s, combiner %v", leg.name, combine != nil)
			e, err := bsp.New[[]float64, float64](g, spillProg{}, bsp.Config[[]float64, float64]{
				Cluster: shape, MaxSupersteps: 10, Combiner: combine,
				PerSenderQueues: leg.perSender, Network: leg.net,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if _, err := e.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for v, got := range e.Values() {
				if !slices.EqualFunc(got, want[v], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Errorf("%s: vertex %d received %v, want %v", name, v, got, want[v])
				}
			}
		}
	}
}

// fixedAssignment hands out one precomputed assignment.
type fixedAssignment struct{ a *partition.Assignment }

func (fixedAssignment) Name() string { return "fixed" }

func (p fixedAssignment) Partition(*graph.Graph, int) (*partition.Assignment, error) { return p.a, nil }

// BenchmarkRun prices the Hama superstep on bench/'s pr-web-hama shape: 21
// PageRank supersteps (the seed round and 20 iterations) on gweb@0.5 over
// Flat(2,1), a hash assignment computed once, construction outside the
// timer. Every vertex sends its share along every out-edge each superstep.
// Run it with -cpu 1 -benchmem, as bench/ runs on one P.
func BenchmarkRun(b *testing.B) {
	const steps = 21
	g, _, err := gen.Dataset("gweb", 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	assign, err := partition.Hash{}.Partition(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bsp.Config[float64, float64]{
		Cluster: cluster.Flat(2, 1), Partitioner: fixedAssignment{assign}, MaxSupersteps: steps,
		MsgCodec: graph.Float64Codec{},
	}
	var msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		e, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tr, err := e.Run()
		b.StopTimer()
		if err != nil || len(tr.Steps) != steps {
			b.Fatalf("run: %v after %d supersteps", err, len(tr.Steps))
		}
		msgs += tr.TotalMessages()
		e.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
}

// TestCheckpointAllocsDoNotGrowWithBatches: a checkpoint copies every pending
// batch into one slab, so a snapshot allocates as often at Flat(6,8), with up
// to 48² batches, as at Flat(2,1), with up to 4. The same holds after a
// Restore, when the snapshot copies the batches Restore queued.
func TestCheckpointAllocsDoNotGrowWithBatches(t *testing.T) {
	g, _, err := gen.Dataset("gweb", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(cc cluster.Config) (fresh, restored float64) {
		e, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{}, bsp.Config[float64, float64]{Cluster: cc, MaxSupersteps: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		s := e.Snapshot()
		if len(s.Pending) < cc.Workers() {
			t.Fatalf("%v: %d pending batches, want at least one per worker", cc, len(s.Pending))
		}
		fresh = testing.AllocsPerRun(10, func() { e.Snapshot() })
		if err := e.Restore(s); err != nil {
			t.Fatal(err)
		}
		restored = testing.AllocsPerRun(10, func() { e.Snapshot() })
		return fresh, restored
	}
	small, smallRestored := allocs(cluster.Flat(2, 1))
	large, largeRestored := allocs(cluster.Flat(6, 8))
	if large != small || largeRestored != smallRestored {
		t.Fatalf("allocations per snapshot: %v and %v after Restore at Flat(6,8), %v and %v at Flat(2,1)",
			large, largeRestored, small, smallRestored)
	}
}
