package harness

import (
	"fmt"
	"io"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/graphlab"
	"cyclops/internal/metrics"
	"cyclops/internal/partition"
)

// Fig4Models reproduces Figure 4 quantitatively: the per-iteration
// communication cost of the four computation models — Pregel/BSP message
// passing, GraphLab's bidirectional replicas with distributed locking,
// PowerGraph's 5-message GAS exchange, and Cyclops' single unidirectional
// sync — all running the same PageRank workload on the same graph to the
// same tolerance.
func Fig4Models(o Options, w io.Writer) error {
	o = o.normalize()
	g, _, err := dataset(o, "gweb")
	if err != nil {
		return err
	}
	n := g.NumVertices()
	eps := 1e-7 // loose enough for the async model to settle quickly
	p := defaultParams(o)
	p.MaxSteps = 100

	t := newTable("model", "replicas/vertex", "messages", "msg-detail", "per vertex-update")

	// Pregel/BSP: no replicas, one message per edge per superstep.
	br := RunResult{Engine: "hama", Config: o.flat()}
	if err := runBSP(&br, g, partition.Hash{}, p, algorithms.PageRankBSP{Eps: eps},
		bsp.Config[float64, float64]{Halt: haltForPR(n, eps)}, floats); err != nil {
		return err
	}
	t.addf("pregel/bsp|0.00|%d|all data+activation|%.2f", br.Messages, perUpdate(br.Messages, vertexUpdates(br.Trace)))

	// GraphLab: duplicate replicas, locks + sync + backward activation, charged
	// per update from the static §2.3 cost table over the same hash assignment.
	assign, err := partition.Hash{}.Partition(g, o.flat().Workers())
	if err != nil {
		return err
	}
	le, err := graphlab.New[float64](g, algorithms.PageRankGraphLab{Eps: eps}, assign)
	if err != nil {
		return err
	}
	lst, err := le.Run(int64(20000 * n))
	if err != nil {
		return err
	}
	t.addf("graphlab|%.2f|%d|lock %d + sync %d + act %d|%.2f",
		le.ReplicationFactor(), lst.Messages(),
		lst.LockMessages, lst.SyncMessages, lst.ActivationMsgs,
		perUpdate(lst.Messages(), lst.Updates))

	// PowerGraph: mirrors, five messages per mirror per iteration.
	gr := RunResult{Engine: "powergraph", Config: o.flat()}
	if err := runGAS(&gr, g, p, algorithms.NewPageRankGAS(g, p.MaxSteps, eps),
		gas.Config[algorithms.PRValue, float64]{ValCodec: algorithms.PRValueCodec{}}, algorithms.Ranks); err != nil {
		return err
	}
	t.addf("powergraph|%.2f|%d|gather 2 + apply 1 + scatter 2 per mirror|%.2f",
		gr.Replication, gr.Messages, perUpdate(gr.Messages, vertexUpdates(gr.Trace)))

	// Cyclops: read-only replicas, at most one unidirectional sync each.
	cr := RunResult{Engine: "cyclops", Config: o.flat()}
	if err := runCyclops(&cr, g, partition.Hash{}, p, algorithms.PageRankCyclops{Eps: eps},
		cyclops.Config[float64, float64]{}, floats); err != nil {
		return err
	}
	t.addf("cyclops|%.2f|%d|1 unidirectional sync+activate per replica|%.2f",
		cr.Replication, cr.Messages, perUpdate(cr.Messages, vertexUpdates(cr.Trace)))

	t.write(w)
	fmt.Fprintln(w, "\n(per vertex-update = total messages / vertex updates executed;")
	fmt.Fprintln(w, " the paper's Figure 4 walks through the same four patterns for one vertex)")
	return nil
}

// vertexUpdates is the number of vertex updates a synchronous run executed.
func vertexUpdates(t *metrics.Trace) (n int64) {
	for _, s := range t.Steps {
		n += s.Active
	}
	return n
}

func perUpdate(msgs, updates int64) float64 {
	if updates == 0 {
		return 0
	}
	return float64(msgs) / float64(updates)
}
