package gas_test

import (
	"fmt"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/cluster"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

// TestRoundBatchesNeverGrow: Run sizes every send batch to its round bound
// before the first superstep, so after a run each capacity still equals the
// bound. A batch grown by append would hold more.
func TestRoundBatchesNeverGrow(t *testing.T) {
	cuts := []gas.EdgePartitioner{gas.RandomVertexCut{}, gas.GreedyVertexCut{}}
	shapes := []cluster.Config{cluster.Flat(2, 1), cluster.Flat(3, 1)}
	for i, g := range pinGraphs(t) {
		for _, cut := range cuts {
			for _, shape := range shapes {
				name := fmt.Sprintf("graph %d, %s, %d workers", i, cut.Name(), shape.Workers())
				checkBatches(t, name+", PageRank", g, algorithms.NewPageRankGAS(g, 10, 0),
					gas.Config[algorithms.PRValue, float64]{Cluster: shape, Partitioner: cut, ValCodec: algorithms.PRValueCodec{}})
				checkBatches(t, name+", SSSP", g, algorithms.SSSPGAS{Source: 0}, gas.Config[float64, float64]{Cluster: shape, Partitioner: cut})
				checkBatches(t, name+", CC", g, algorithms.CCGAS{}, gas.Config[int64, int64]{Cluster: shape, Partitioner: cut})
			}
		}
	}
}

// checkBatches runs prog to its end and fails t if a send batch grew.
func checkBatches[V, G any](t *testing.T, name string, g *graph.Graph, prog gas.Program[V, G], cfg gas.Config[V, G]) {
	t.Helper()
	cfg.MaxSupersteps = 200
	e, err := gas.New[V, G](g, prog, cfg)
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
}

// BenchmarkRun prices the GAS superstep: 20 PageRank supersteps on bench/'s
// pr-web-gas shape (gweb@0.5 over Flat(2,1), a random vertex-cut table
// computed once), construction outside the timer. Every vertex is active in
// every superstep, so each gathers every edge once. Run it with -cpu 1
// -benchmem, as bench/ runs on one P.
func BenchmarkRun(b *testing.B) {
	const iters = 20
	g, _, err := gen.Dataset("gweb", 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gas.Config[algorithms.PRValue, float64]{
		Cluster: cluster.Flat(2, 1), Partitioner: gas.FixedCut(gas.RandomVertexCut{}.PartitionEdges(g, 2)),
		MaxSupersteps: iters, ValCodec: algorithms.PRValueCodec{}, AccCodec: graph.Float64Codec{},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		e, err := gas.New[algorithms.PRValue, float64](g, algorithms.NewPageRankGAS(g, iters, 0), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tr, err := e.Run()
		b.StopTimer()
		if err != nil || len(tr.Steps) != iters {
			b.Fatalf("run: %v after %d supersteps", err, len(tr.Steps))
		}
		e.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters*g.NumEdges()), "ns/edge")
}
