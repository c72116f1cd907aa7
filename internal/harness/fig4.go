package harness

import (
	"fmt"
	"io"

	"cyclops/internal/aggregate"
	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/graphlab"
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
	eps := 1e-7 // loose enough for the async engine to settle quickly

	t := newTable("model", "replicas/vertex", "messages", "msg-detail", "per vertex-update")

	// Pregel/BSP: no replicas, one message per edge per superstep.
	be, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{Eps: eps},
		bsp.Config[float64, float64]{
			Cluster: o.flat(), MaxSupersteps: 100,
			Halt: aggregate.GlobalErrorHalt(algorithms.ErrorAggregator, n, eps),
		})
	if err != nil {
		return err
	}
	btr, err := be.Run()
	if err != nil {
		return err
	}
	var bUpdates int64
	for _, s := range btr.Steps {
		bUpdates += s.Active
	}
	t.addf("pregel/bsp|0.00|%d|all data+activation|%.2f",
		btr.TotalMessages(), perUpdate(btr.TotalMessages(), bUpdates))

	// GraphLab: duplicate replicas, locks + sync + backward activation.
	le, err := graphlab.New[float64](g,
		algorithms.PageRankGraphLab{Eps: eps, N: n},
		graphlab.Config[float64]{
			Cluster:    o.flat(),
			MaxUpdates: int64(20000 * n),
		})
	if err != nil {
		return err
	}
	lst, err := le.Run()
	if err != nil {
		return err
	}
	t.addf("graphlab|%.2f|%d|lock %d + sync %d + act %d|%.2f",
		le.ReplicationFactor(), lst.Messages(),
		lst.LockMessages, lst.SyncMessages, lst.ActivationMsgs,
		perUpdate(lst.Messages(), lst.Updates))

	// PowerGraph: mirrors, five messages per mirror per iteration.
	ge, err := gas.New[algorithms.PRValue, float64](g,
		algorithms.NewPageRankGAS(g, 100, eps),
		gas.Config[algorithms.PRValue, float64]{Cluster: o.flat(), MaxSupersteps: 100,
			ValCodec: algorithms.PRValueCodec{}})
	if err != nil {
		return err
	}
	gtr, err := ge.Run()
	if err != nil {
		return err
	}
	var gUpdates int64
	for _, s := range gtr.Steps {
		gUpdates += s.Active
	}
	t.addf("powergraph|%.2f|%d|gather 2 + apply 1 + scatter 2 per mirror|%.2f",
		ge.ReplicationFactor(), gtr.TotalMessages(), perUpdate(gtr.TotalMessages(), gUpdates))

	// Cyclops: read-only replicas, at most one unidirectional sync each.
	ce, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: eps},
		cyclops.Config[float64, float64]{Cluster: o.flat(), MaxSupersteps: 100,
			Partitioner: partition.Hash{}})
	if err != nil {
		return err
	}
	ctr, err := ce.Run()
	if err != nil {
		return err
	}
	var cUpdates int64
	for _, s := range ctr.Steps {
		cUpdates += s.Active
	}
	t.addf("cyclops|%.2f|%d|1 unidirectional sync+activate per replica|%.2f",
		ce.ReplicationFactor(), ctr.TotalMessages(), perUpdate(ctr.TotalMessages(), cUpdates))

	t.write(w)
	fmt.Fprintln(w, "\n(per vertex-update = total messages / vertex updates executed;")
	fmt.Fprintln(w, " the paper's Figure 4 walks through the same four patterns for one vertex)")
	return nil
}

func perUpdate(msgs, updates int64) float64 {
	if updates == 0 {
		return 0
	}
	return float64(msgs) / float64(updates)
}
