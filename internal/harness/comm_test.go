package harness

// Acceptance test for the traffic matrix: on multi-worker runs of all three
// engines, the per-superstep deltas the kernel puts in each StepRecord must
// accumulate in the run log to exactly the transport's raw wire counters — same
// message count, same byte count, no sampling, no estimation. Also checks
// that Options.Audit threads through every runner without breaking a clean
// run.

import (
	"testing"

	"cyclops/internal/obs"
	"cyclops/internal/partition"
)

func TestCommMatrixMatchesTransportStats(t *testing.T) {
	o := tiny()
	ctx, err := workloadSpec{"PR", "wiki"}.prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"hama", "cyclops", "powergraph"} {
		t.Run(engine, func(t *testing.T) {
			log := obs.NewLog()
			p := ctx.params
			p.Hooks = log
			p.Audit = true // a clean run must stay clean under audit
			r, err := RunWorkload(engine, "PR", ctx.graph, o.flat(), partition.Hash{}, p)
			if err != nil {
				t.Fatalf("audited run failed: %v", err)
			}
			if r.Supersteps == 0 {
				t.Fatal("run did no supersteps")
			}

			cum := log.Cumulative()
			if cum.Workers != o.flat().Workers() {
				t.Fatalf("matrix has %d workers, cluster has %d", cum.Workers, o.flat().Workers())
			}
			if got, want := cum.TotalMessages(), r.Transport.Messages; got != want {
				t.Errorf("matrix messages = %d, transport counted %d", got, want)
			}
			if got, want := cum.TotalBytes(), r.Transport.Bytes; got != want {
				t.Errorf("matrix bytes = %d, transport counted %d", got, want)
			}
			if cum.TotalMessages() == 0 {
				t.Error("no traffic recorded on a multi-worker run")
			}

			// Row and column marginals must both sum to the same total.
			var egress, ingress int64
			for _, v := range cum.Egress() {
				egress += v
			}
			for _, v := range cum.Ingress() {
				ingress += v
			}
			if egress != cum.TotalMessages() || ingress != cum.TotalMessages() {
				t.Errorf("marginals disagree: egress %d, ingress %d, total %d",
					egress, ingress, cum.TotalMessages())
			}
		})
	}
}
