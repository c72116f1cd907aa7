package cyclops_test

import (
	"fmt"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
)

// TestRoundBatchesNeverGrow: SND sends at most one message per send-plan
// entry, and Run gives each batch its plan row's length before the first
// superstep, so after a run each capacity still equals the row's length. A
// batch grown by append would hold more.
func TestRoundBatchesNeverGrow(t *testing.T) {
	parts := []partition.Partitioner{partition.Hash{}, partition.Multilevel{}}
	shapes := []cluster.Config{cluster.Flat(2, 1), cluster.Flat(3, 1)}
	for i, g := range pinGraphs(t) {
		for _, part := range parts {
			for _, shape := range shapes {
				name := fmt.Sprintf("graph %d, %s, %d workers", i, part.Name(), shape.Workers())
				checkBatches(t, name+", PageRank", g, algorithms.PageRankCyclops{Eps: 1e-7}, cyclops.Config[float64, float64]{Cluster: shape, Partitioner: part})
				checkBatches(t, name+", SSSP", g, algorithms.SSSPCyclops{Source: 0}, cyclops.Config[float64, float64]{Cluster: shape, Partitioner: part})
				checkBatches(t, name+", CC", g, algorithms.CCCyclops{}, cyclops.Config[int64, int64]{Cluster: shape, Partitioner: part})
			}
		}
	}
}

// checkBatches runs prog to its end and fails t if an SND batch grew.
func checkBatches[V, M any](t *testing.T, name string, g *graph.Graph, prog cyclops.Program[V, M], cfg cyclops.Config[V, M]) {
	t.Helper()
	cfg.MaxSupersteps = 200
	e, err := cyclops.New[V, M](g, prog, cfg)
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
