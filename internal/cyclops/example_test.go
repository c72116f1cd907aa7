package cyclops_test

import (
	"fmt"

	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
)

// degreeProg publishes each vertex's in-degree to its neighbors and
// computes the sum of neighbor degrees — a minimal two-superstep program
// exercising the immutable view.
type degreeProg struct{}

func (degreeProg) Init(id graph.ID, g *graph.Graph) (float64, float64, bool) {
	return 0, float64(g.InDegree(id)), true
}

func (degreeProg) Compute(ctx *cyclops.Context[float64, float64]) {
	view, srcs, _ := ctx.In()
	var sum float64
	for _, s := range srcs {
		sum += view[s]
	}
	ctx.SetValue(sum)
	// No Publish: one superstep of reading the view suffices, and without
	// activation everyone goes back to sleep.
}

// Example runs a tiny Cyclops job over a diamond graph and prints each
// vertex's sum of in-neighbor in-degrees.
func Example() {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // diamond: 0 → {1,2} → 3
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.MustBuild()

	engine, err := cyclops.New[float64, float64](g, degreeProg{},
		cyclops.Config[float64, float64]{Cluster: cluster.Flat(2, 1)})
	if err != nil {
		panic(err)
	}
	if _, err := engine.Run(); err != nil {
		panic(err)
	}
	for v, sum := range engine.Values() {
		fmt.Printf("vertex %d: %.0f\n", v, sum)
	}
	fmt.Printf("replicas created: %d\n", engine.Ingress().Replicas)
	// Output:
	// vertex 0: 0
	// vertex 1: 0
	// vertex 2: 0
	// vertex 3: 2
	// replicas created: 2
}
