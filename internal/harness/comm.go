package harness

import (
	"fmt"
	"io"

	"cyclops/internal/obs"
	"cyclops/internal/partition"
)

// Comm is the communication observatory: the per-worker counterpart of
// Table 4's traffic totals and Figure 10(3)'s messages-per-superstep series.
// It runs PageRank on gweb under all three engines with a run log attached,
// prints each engine's worker×worker
// egress/ingress breakdown, and cross-checks the accumulated matrix against
// the transport's raw wire counters — they must agree exactly, message for
// message and byte for byte.
func Comm(o Options, w io.Writer) error {
	o = o.normalize()
	spec := workloadSpec{"PR", "gweb"}
	ctx, err := spec.prepare(o)
	if err != nil {
		return err
	}
	for _, engine := range []string{"hama", "cyclops", "powergraph"} {
		log := obs.NewLog()
		p := ctx.params
		p.Hooks = obs.Multi(o.Hooks, log)
		r, err := RunWorkload(engine, "PR", ctx.graph, o.flat(), partition.Hash{}, p)
		if err != nil {
			return err
		}

		cum := log.Cumulative()
		fmt.Fprintf(w, "\n-- %s: %d supersteps, %d msgs / %d bytes on the wire\n",
			r.Engine, r.Supersteps, cum.TotalMessages(), cum.TotalWireBytes())
		if cum.TotalMessages() != r.Transport.Messages || cum.TotalWireBytes() != r.Transport.WireBytes {
			return fmt.Errorf("comm: %s traffic matrix (%d msgs / %d B) does not sum to transport stats (%v)",
				r.Engine, cum.TotalMessages(), cum.TotalWireBytes(), r.Transport)
		}

		egress, ingress := cum.Egress(), cum.Ingress()
		eBytes, iBytes := cum.EgressBytes(), cum.IngressBytes()
		t := newTable("worker", "egress-msgs", "ingress-msgs", "egress-bytes", "ingress-bytes")
		for wk := 0; wk < cum.Workers; wk++ {
			t.addf("%d|%d|%d|%d|%d", wk, egress[wk], ingress[wk], eBytes[wk], iBytes[wk])
		}
		t.write(w)

		for _, rep := range log.SkewReports() {
			fmt.Fprintln(w, rep.String())
		}
	}
	return nil
}
