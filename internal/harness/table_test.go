package harness

import (
	"math"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/fault"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
)

// TestTableRowsMatchReferences walks the whole (engine × algorithm) table:
// every row, at tiny scale, must equal its sequential reference, and the same
// row under a seeded fault spec must finish bit-equal to its own clean run.
// The table is what cyclops-run, the experiments and the perf gate all
// execute, so this is the one correctness net under all of them.
func TestTableRowsMatchReferences(t *testing.T) {
	o := tiny()
	const source = 3 // non-zero, so a row that ignored Params.Source would fail
	cases := []struct {
		algo, dataset string
		steps         int // superstep budget; ALS fixes its own
		engines       []string
		tol           float64 // 0 = exact
		ref           func(g *graph.Graph, meta gen.Meta) []float64
	}{
		// Eps-bounded termination leaves the hubs a few 1e-6 short of the
		// offline ranks (Figure 3(3)'s error distribution), so PR is approximate.
		{"PR", "gweb", 200, []string{"hama", "cyclops", "powergraph"}, 1e-5,
			func(g *graph.Graph, _ gen.Meta) []float64 { return algorithms.PageRankRef(g, 200) }},
		{"SSSP", "roadca", 600, []string{"hama", "cyclops", "powergraph"}, 0,
			func(g *graph.Graph, _ gen.Meta) []float64 { return algorithms.SSSPRef(g, source) }},
		{"CC", "dblp", 100, []string{"hama", "cyclops"}, 0,
			func(g *graph.Graph, _ gen.Meta) []float64 { return int64sToFloats(algorithms.CCRef(g)) }},
		{"CD", "dblp", 20, []string{"hama", "cyclops"}, 0,
			func(g *graph.Graph, _ gen.Meta) []float64 { return int64sToFloats(algorithms.CDRef(g, 20)) }},
		{"ALS", "syn-gl", 0, []string{"hama", "cyclops"}, 1e-6,
			func(g *graph.Graph, meta gen.Meta) []float64 {
				return flatten(algorithms.ALSRef(g, alsConfig(meta.Users, 3)))
			}},
	}
	recovered := &recoveryStats{}
	for _, tc := range cases {
		ctx, err := workloadSpec{tc.algo, tc.dataset}.prepare(o)
		if err != nil {
			t.Fatal(err)
		}
		ctx.params.Source, ctx.params.MaxSteps = source, tc.steps
		want := tc.ref(ctx.graph, ctx.meta)
		for _, engine := range tc.engines {
			t.Run(engine+"/"+tc.algo, func(t *testing.T) {
				p := ctx.params
				if engine == "hama" {
					p = ctx.hamaParams()
				}
				clean, err := RunWorkload(engine, tc.algo, ctx.graph, o.flat(), partition.Hash{}, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(clean.Values) != len(want) {
					t.Fatalf("%d values, reference has %d", len(clean.Values), len(want))
				}
				for i := range want {
					if d := math.Abs(clean.Values[i] - want[i]); d > tc.tol || math.IsNaN(d) && want[i] != clean.Values[i] {
						t.Fatalf("value %d: %g, reference %g (tolerance %g)", i, clean.Values[i], want[i], tc.tol)
					}
				}

				p.Hooks = obs.Multi(p.Hooks, recovered)
				p.Faults = &FaultSpec{Plan: fault.NewPlan(1, o.flat().Workers(), 1, 5, 3), Every: 2, Dir: t.TempDir()}
				faulted, err := RunWorkload(engine, tc.algo, ctx.graph, o.flat(), partition.Hash{}, p)
				if err != nil {
					t.Fatal(err)
				}
				if !floatsEqual(clean.Values, faulted.Values) {
					t.Fatalf("values under %v diverged from the clean run", p.Faults.Plan.Faults)
				}
			})
		}
	}
	if recovered.recoveries == 0 {
		t.Error("no row recovered from a fault: the seeded plan never fired, so the fault leg proved nothing")
	}
}
