package harness

import (
	"fmt"
	"io"
	"sort"

	"cyclops/internal/aggregate"
	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
)

// Ablations isolate the individual design decisions the paper bundles
// together, quantifying each one's contribution on the gweb PageRank
// workload. They go beyond the paper's figures but answer the questions its
// §2 analysis raises: how much of the win is the queue discipline, how much
// is dynamic activation, and what does each convergence detector cost in
// accuracy?

// AblationQueue isolates §2.2.2's contention claim: the identical Hama
// engine and program, with only the receive-side queue discipline switched
// between the locked global in-queue and Cyclops-style per-sender slots.
func AblationQueue(o Options, w io.Writer) error {
	o = o.normalize()
	ctx, err := (workloadSpec{"PR", "gweb"}).prepare(o)
	if err != nil {
		return err
	}
	t := newTable("queue-discipline", "model-ms", "locked-enqueues", "messages", "steps")
	for _, perSender := range []bool{false, true} {
		r := RunResult{Engine: "hama", Config: o.flat()}
		if err := runBSP(&r, ctx.graph, partition.Hash{}, ctx.params, algorithms.PageRankBSP{Eps: ctx.params.Eps},
			bsp.Config[float64, float64]{
				Halt:            haltForPR(ctx.graph.NumVertices(), ctx.params.Eps),
				PerSenderQueues: perSender,
			}, floats); err != nil {
			return err
		}
		name := "global-locked (Hama)"
		if perSender {
			name = "per-sender (Cyclops-style)"
		}
		t.addf("%s|%.1f|%d|%d|%d", name,
			r.ModelMs, r.Transport.LockedEnqueues, r.Transport.Messages, r.Supersteps)
	}
	t.write(w)
	return nil
}

// AblationCombiner quantifies what Hama's combiner buys: the same PageRank
// job with and without sum-combining of messages bound for one vertex.
func AblationCombiner(o Options, w io.Writer) error {
	o = o.normalize()
	ctx, err := (workloadSpec{"PR", "gweb"}).prepare(o)
	if err != nil {
		return err
	}
	t := newTable("combiner", "messages", "wire-bytes", "model-ms")
	for _, combine := range []bool{false, true} {
		cfg := bsp.Config[float64, float64]{Halt: haltForPR(ctx.graph.NumVertices(), ctx.params.Eps)}
		if combine {
			cfg.Combiner = func(a, b float64) float64 { return a + b }
		}
		r := RunResult{Engine: "hama", Config: o.flat()}
		if err := runBSP(&r, ctx.graph, partition.Hash{}, ctx.params,
			algorithms.PageRankBSP{Eps: ctx.params.Eps}, cfg, floats); err != nil {
			return err
		}
		name := "off"
		if combine {
			name = "sum"
		}
		t.addf("%s|%d|%d|%.1f", name, r.Transport.Messages, r.Transport.WireBytes, r.ModelMs)
	}
	t.write(w)
	fmt.Fprintln(w, "\n(combining helps Hama but cannot remove per-edge traffic from live")
	fmt.Fprintln(w, " vertices — Cyclops removes the traffic itself)")
	return nil
}

// AblationActivation isolates dynamic computation (§3.3): Cyclops PageRank
// with local-error activation versus an eager variant (eps=0) that keeps
// every vertex publishing every superstep.
func AblationActivation(o Options, w io.Writer) error {
	o = o.normalize()
	ctx, err := (workloadSpec{"PR", "gweb"}).prepare(o)
	if err != nil {
		return err
	}
	ref := algorithms.PageRankRef(ctx.graph, 200)
	t := newTable("activation", "vertex-steps", "messages", "steps", "L1-vs-offline")
	for _, eps := range []float64{0, ctx.params.Eps} {
		r := RunResult{Engine: "cyclops", Config: o.flat()}
		if err := runCyclops(&r, ctx.graph, partition.Hash{}, ctx.params, algorithms.PageRankCyclops{Eps: eps},
			cyclops.Config[float64, float64]{}, floats); err != nil {
			return err
		}
		name := fmt.Sprintf("dynamic (eps=%.0e)", eps)
		if eps == 0 {
			name = "eager (all active)"
		}
		t.addf("%s|%d|%d|%d|%.2e", name,
			vertexUpdates(r.Trace), r.Messages, r.Supersteps, algorithms.L1Distance(r.Values, ref))
	}
	t.write(w)
	return nil
}

// AblationDetectors compares the three convergence detectors of §2.2.3/§4.4
// — Hama's global error, Cyclops' local error, and Cyclops' finer
// converged-proportion detector — by final accuracy against the offline
// result and by cost.
func AblationDetectors(o Options, w io.Writer) error {
	o = o.normalize()
	ctx, err := (workloadSpec{"PR", "gweb"}).prepare(o)
	if err != nil {
		return err
	}
	g := ctx.graph
	n := g.NumVertices()
	eps := 1e-4 / float64(n) // the paper-relative bound used by Fig3
	ref := algorithms.PageRankRef(g, 200)

	t := newTable("detector", "steps", "messages", "L1-vs-offline", "top10%-unconverged")
	type vr struct{ rank, err float64 }
	report := func(name string, r *RunResult) {
		// Count top-decile vertices (by offline rank) whose error exceeds eps.
		vs := make([]vr, n)
		for v := 0; v < n; v++ {
			vs[v] = vr{rank: ref[v], err: abs64(r.Values[v] - ref[v])}
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i].rank > vs[j].rank })
		top := n / 10
		if top == 0 {
			top = 1
		}
		bad := 0
		for _, x := range vs[:top] {
			if x.err > eps {
				bad++
			}
		}
		t.addf("%s|%d|%d|%.2e|%.1f%%", name, r.Supersteps, r.Messages,
			algorithms.L1Distance(r.Values, ref), 100*float64(bad)/float64(top))
	}
	p := ctx.params
	p.MaxSteps = 120

	// 1. Hama + global-error aggregate (the paper's problematic default).
	hr := RunResult{Engine: "hama", Config: o.flat()}
	if err := runBSP(&hr, g, partition.Hash{}, p, algorithms.PageRankBSP{Eps: eps},
		bsp.Config[float64, float64]{Halt: haltForPR(n, eps)}, floats); err != nil {
		return err
	}
	report("global error (Hama)", &hr)

	// 2. Cyclops local error: each vertex stops on its own |Δ|.
	cr := RunResult{Engine: "cyclops", Config: o.flat()}
	if err := runCyclops(&cr, g, partition.Hash{}, p, algorithms.PageRankCyclops{Eps: eps},
		cyclops.Config[float64, float64]{}, floats); err != nil {
		return err
	}
	report("local error (Cyclops)", &cr)

	// 3. Cyclops + converged-proportion (§4.4): stop when 99% of vertices
	// report local convergence, whatever the laggards do.
	pr := RunResult{Engine: "cyclops", Config: o.flat()}
	if err := runCyclops(&pr, g, partition.Hash{}, p, proportionPR{eps: eps},
		cyclops.Config[float64, float64]{
			Halt: aggregate.ConvergedProportionHalt(convergedAggregator, n, 0.99),
		}, floats); err != nil {
		return err
	}
	report("converged-proportion 99%", &pr)

	t.write(w)
	fmt.Fprintln(w, "\n(the global detector stops earliest but leaves high-rank vertices")
	fmt.Fprintln(w, " unconverged — the accuracy problem §2.2.3 documents)")
	return nil
}

const convergedAggregator = "pr-converged"

// proportionPR is PageRankCyclops plus a converged-vertex counter feeding
// the §4.4 proportion detector.
type proportionPR struct {
	eps float64
}

// Init implements cyclops.Program.
func (p proportionPR) Init(id graph.ID, g *graph.Graph) (float64, float64, bool) {
	return algorithms.PageRankCyclops{Eps: p.eps}.Init(id, g)
}

// Compute implements cyclops.Program: every vertex stays active and counts
// itself once its local error is below eps, so the proportion detector can
// stop the whole job at the target percentile — §4.4's "finer" policy trades
// the stragglers' accuracy for bounded extra supersteps.
func (p proportionPR) Compute(ctx *cyclops.Context[float64, float64]) {
	var sum float64
	for i := 0; i < ctx.InDegree(); i++ {
		sum += ctx.NeighborMessage(i)
	}
	value := 0.15/float64(ctx.NumVertices()) + algorithms.Damping*sum
	last := ctx.Value()
	ctx.SetValue(value)
	err := value - last
	if err < 0 {
		err = -err
	}
	if err <= p.eps {
		ctx.Aggregate(convergedAggregator, 1)
	}
	d := ctx.OutDegree()
	if d == 0 {
		d = 1
	}
	ctx.Publish(value/float64(d), true)
}
