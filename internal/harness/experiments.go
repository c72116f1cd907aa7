package harness

import (
	"fmt"
	"io"
	"sort"

	"cyclops/internal/algorithms"
	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/partition"
)

// paperWorkloads are the Table 1 algorithm↔dataset pairings of §6.1.
type workloadSpec struct {
	Algo    string
	Dataset string
}

func paperWorkloads() []workloadSpec {
	return []workloadSpec{
		{"PR", "amazon"}, {"PR", "gweb"}, {"PR", "ljournal"}, {"PR", "wiki"},
		{"ALS", "syn-gl"}, {"CD", "dblp"}, {"SSSP", "roadca"},
	}
}

func (w workloadSpec) label() string { return w.Algo + "/" + w.Dataset }

// prepare loads the dataset and derives run parameters, including the
// algorithm's superstep budget: 60 for PageRank, ten times that for SSSP
// (the frontier advances one hop per superstep across a road network) and 20
// rounds for CD (synchronous label propagation may legitimately oscillate).
func (w workloadSpec) prepare(o Options) (*runCtx, error) {
	g, meta, err := dataset(o, w.Dataset)
	if err != nil {
		return nil, err
	}
	p := defaultParams(o)
	p.MaxSteps = 60
	switch w.Algo {
	case "SSSP":
		p.MaxSteps = 600
	case "CD":
		p.MaxSteps = 20
	}
	p.alsUsers = meta.Users
	return &runCtx{spec: w, meta: meta, graph: g, params: p}, nil
}

// runCtx bundles what an engine run needs.
type runCtx struct {
	spec   workloadSpec
	meta   gen.Meta
	graph  *graph.Graph
	params Params
}

// hamaParams is params for the BSP engine, which spends superstep 0
// broadcasting the initial labels and so takes one more superstep than
// Cyclops for the same number of CD rounds.
func (c *runCtx) hamaParams() Params {
	p := c.params
	if c.spec.Algo == "CD" {
		p.MaxSteps++
	}
	return p
}

// ---------------------------------------------------------------------------
// Fig 3 — BSP motivation: convergence asymmetry, redundant messages, final
// error distribution under global-error termination (§2.2).

// Fig3 reproduces all three panels of Figure 3 from one Hama PageRank run on
// the GWeb substitution.
func Fig3(o Options, w io.Writer) error {
	o = o.normalize()
	g, _, err := dataset(o, "gweb")
	if err != nil {
		return err
	}
	n := g.NumVertices()
	// The paper's bound (e=1e-10 on the 875k-vertex GWeb) is ≈1e-4/|V|;
	// scale it the same way so convergence asymmetry reproduces at any size.
	eps := 1e-4 / float64(n)

	var history [][]float64
	p := defaultParams(o)
	p.MaxSteps = 80
	p.Eps = eps
	p.onValues = func(step int, values []float64) {
		history = append(history, append([]float64(nil), values...))
	}
	res, err := RunWorkload("hama", "PR", g, o.flat(), partition.Hash{}, p)
	if err != nil {
		return err
	}

	// Panel 1: vertices newly converged per superstep (|Δrank| first drops
	// below eps and stays there).
	convergedAt := make([]int, n)
	for v := range convergedAt {
		convergedAt[v] = len(history) // never
	}
	for v := 0; v < n; v++ {
		for s := len(history) - 1; s >= 1; s-- {
			if abs64(history[s][v]-history[s-1][v]) >= eps {
				break
			}
			convergedAt[v] = s
		}
	}
	newly := make([]int, len(history)+1)
	for _, s := range convergedAt {
		newly[s]++
	}

	fmt.Fprintf(w, "Hama PageRank on gweb (|V|=%d, eps=%.0e): %d supersteps, %d messages\n\n",
		n, eps, res.Supersteps, res.Messages)
	t := newTable("superstep", "newly-converged", "cum-converged-%", "redundant-msg-ratio")
	cum := 0
	for s, st := range res.Trace.Steps {
		if s < len(newly) {
			cum += newly[s]
		}
		ratio := 0.0
		if st.Messages > 0 {
			ratio = float64(st.RedundantMessages) / float64(st.Messages)
		}
		t.addf("%d|%d|%.1f|%.3f", s, newly[min(s, len(newly)-1)],
			100*float64(cum)/float64(n), ratio)
	}
	t.write(w)

	// Panel 3: final per-vertex error against the offline result, split by
	// rank importance (top decile vs rest), reproducing the §2.2.3 finding
	// that global-error termination leaves the *important* vertices
	// unconverged.
	ref := algorithms.PageRankRef(g, 200)
	final := res.Values
	type ve struct {
		rank float64
		err  float64
	}
	ves := make([]ve, n)
	for v := 0; v < n; v++ {
		ves[v] = ve{rank: final[v], err: abs64(final[v] - ref[v])}
	}
	// Sort by rank descending (paper: "left ones have higher rank values").
	sort.Slice(ves, func(i, j int) bool { return ves[i].rank > ves[j].rank })
	top := n / 10
	if top == 0 {
		top = 1
	}
	topUnconv, restUnconv, zeros := 0, 0, 0
	for i, x := range ves {
		if x.err > eps {
			if i < top {
				topUnconv++
			} else {
				restUnconv++
			}
		}
		if x.err == 0 {
			zeros++
		}
	}
	fmt.Fprintf(w, "\nError distribution at global convergence (vs offline ranks):\n")
	fmt.Fprintf(w, "  top-10%% by rank: %d/%d vertices still above eps (%.2f%%)\n",
		topUnconv, top, 100*float64(topUnconv)/float64(top))
	fmt.Fprintf(w, "  remaining 90%%:  %d/%d vertices above eps (%.2f%%)\n",
		restUnconv, n-top, 100*float64(restUnconv)/float64(n-top))
	fmt.Fprintf(w, "  exact-zero error: %d vertices\n", zeros)
	return nil
}

// ---------------------------------------------------------------------------
// Fig 9 — headline speedups and scalability.

// runTriple runs Hama, flat Cyclops and CyclopsMT on one workload.
func runTriple(o Options, w workloadSpec, part partition.Partitioner) (hama, cyc, mt RunResult, err error) {
	ctx, err := w.prepare(o)
	if err != nil {
		return hama, cyc, mt, err
	}
	if hama, err = RunWorkload("hama", w.Algo, ctx.graph, o.flat(), part, ctx.hamaParams()); err != nil {
		return hama, cyc, mt, err
	}
	if cyc, err = RunWorkload("cyclops", w.Algo, ctx.graph, o.flat(), part, ctx.params); err != nil {
		return hama, cyc, mt, err
	}
	mt, err = RunWorkload("cyclops", w.Algo, ctx.graph, o.mt(), part, ctx.params)
	return hama, cyc, mt, err
}

// Fig9Speedup reproduces Figure 9(1): normalized speedup of Cyclops and
// CyclopsMT over Hama with 48 workers on every Table 1 workload.
func Fig9Speedup(o Options, w io.Writer) error {
	return fig9SpeedupWith(o, w, partition.Hash{})
}

func fig9SpeedupWith(o Options, w io.Writer, part partition.Partitioner) error {
	o = o.normalize()
	t := newTable("workload", "hama-model-ms", "cyclops-X", "cyclopsmt-X",
		"hama-msgs", "cyclops-msgs", "steps-H/C", "wall-H/C/MT-ms")
	for _, spec := range paperWorkloads() {
		hama, cyc, mt, err := runTriple(o, spec, part)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.label(), err)
		}
		t.addf("%s|%.1f|%.2f|%.2f|%d|%d|%d/%d|%.0f/%.0f/%.0f",
			spec.label(), hama.ModelMs,
			speedup(hama.ModelMs, cyc.ModelMs),
			speedup(hama.ModelMs, mt.ModelMs),
			hama.Messages, cyc.Messages,
			hama.Supersteps, cyc.Supersteps,
			float64(hama.Wall.Milliseconds()),
			float64(cyc.Wall.Milliseconds()),
			float64(mt.Wall.Milliseconds()))
	}
	t.write(w)
	fmt.Fprintf(w, "\n(model time drives the speedup columns; wall time on this host is\n"+
		" reported for honesty — it lacks the cluster's parallel hardware)\n")
	return nil
}

// Fig9Scalability reproduces Figure 9(2): speedup over Hama-with-6-workers
// as the cluster grows 6 → 48 workers.
func Fig9Scalability(o Options, w io.Writer) error {
	o = o.normalize()
	scales := []int{1, 2, 4, 8} // workers per machine
	for _, spec := range paperWorkloads() {
		ctx, err := spec.prepare(o)
		if err != nil {
			return err
		}
		t := newTable("workers", "hama-X", "cyclops-X", "cyclopsmt-X")
		var base float64
		for _, wpm := range scales {
			flat := cluster.Flat(o.Machines, wpm)
			mtc := cluster.MT(o.Machines, wpm, 2)
			hama, err := RunWorkload("hama", spec.Algo, ctx.graph, flat, partition.Hash{}, ctx.hamaParams())
			if err != nil {
				return err
			}
			cyc, err := RunWorkload("cyclops", spec.Algo, ctx.graph, flat, partition.Hash{}, ctx.params)
			if err != nil {
				return err
			}
			mt, err := RunWorkload("cyclops", spec.Algo, ctx.graph, mtc, partition.Hash{}, ctx.params)
			if err != nil {
				return err
			}
			if base == 0 {
				base = hama.ModelMs
			}
			t.addf("%d|%.2f|%.2f|%.2f", flat.Workers(),
				speedup(base, hama.ModelMs), speedup(base, cyc.ModelMs), speedup(base, mt.ModelMs))
		}
		fmt.Fprintf(w, "\n%s (normalized to Hama @ %d workers)\n", spec.label(), o.Machines)
		t.write(w)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fig 10 — where the time goes.

// modelBreakdown recomputes the per-phase model split of a finished run.
func modelBreakdown(r RunResult) metrics.Breakdown {
	m := metrics.DefaultCostModel()
	cc := r.Config.Normalize()
	workers := cc.Workers()
	globalQ := r.Engine == "hama" || r.Engine == "powergraph"
	var total metrics.Breakdown
	for _, s := range r.Trace.Steps {
		barrier := m.FlatBarrier(workers)
		if r.Engine == "cyclopsmt" {
			barrier = m.HierarchicalBarrier(cc.Machines, cc.Threads)
		}
		b := m.StepCostParts(s.ComputeUnitsMax, s.SendMax, s.RecvMax,
			cc.Threads, cc.Receivers, workers, globalQ, barrier)
		total.Compute += b.Compute
		total.Send += b.Send
		total.Parse += b.Parse
		total.Sync += b.Sync
	}
	return total
}

// Fig10Breakdown reproduces Figure 10(1): normalized execution-time
// breakdown (SYN/PRS/CMP/SND) for Hama, Cyclops and CyclopsMT on every
// workload.
func Fig10Breakdown(o Options, w io.Writer) error {
	o = o.normalize()
	t := newTable("workload", "engine", "SYN%", "PRS%", "CMP%", "SND%", "total-vs-hama")
	for _, spec := range paperWorkloads() {
		hama, cyc, mt, err := runTriple(o, spec, partition.Hash{})
		if err != nil {
			return err
		}
		hb := modelBreakdown(hama)
		for _, r := range []RunResult{hama, cyc, mt} {
			b := modelBreakdown(r)
			tot := b.Total()
			t.addf("%s|%s|%.0f|%.0f|%.0f|%.0f|%.2f",
				spec.label(), r.Engine,
				100*b.Sync/tot, 100*b.Parse/tot, 100*b.Compute/tot, 100*b.Send/tot,
				tot/hb.Total())
		}
	}
	t.write(w)
	return nil
}

// fig10Pair runs Hama and Cyclops PageRank on gweb for the per-superstep
// series of Figures 10(2) and 10(3).
func fig10Pair(o Options) (hama, cyc RunResult, err error) {
	spec := workloadSpec{"PR", "gweb"}
	ctx, err := spec.prepare(o)
	if err != nil {
		return
	}
	if hama, err = RunWorkload("hama", "PR", ctx.graph, o.flat(), partition.Hash{}, ctx.params); err != nil {
		return
	}
	cyc, err = RunWorkload("cyclops", "PR", ctx.graph, o.flat(), partition.Hash{}, ctx.params)
	return
}

// Fig10Active reproduces Figure 10(2): active vertices per superstep.
func Fig10Active(o Options, w io.Writer) error {
	o = o.normalize()
	hama, cyc, err := fig10Pair(o)
	if err != nil {
		return err
	}
	t := newTable("superstep", "hama-active", "cyclops-active")
	steps := max(len(hama.Trace.Steps), len(cyc.Trace.Steps))
	for s := 0; s < steps; s++ {
		t.addf("%d|%s|%s", s, stepActive(hama, s), stepActive(cyc, s))
	}
	t.write(w)
	return nil
}

// Fig10Messages reproduces Figure 10(3): messages per superstep.
func Fig10Messages(o Options, w io.Writer) error {
	o = o.normalize()
	hama, cyc, err := fig10Pair(o)
	if err != nil {
		return err
	}
	t := newTable("superstep", "hama-msgs", "cyclops-msgs")
	steps := max(len(hama.Trace.Steps), len(cyc.Trace.Steps))
	for s := 0; s < steps; s++ {
		t.addf("%d|%s|%s", s, stepMsgs(hama, s), stepMsgs(cyc, s))
	}
	t.write(w)
	fmt.Fprintf(w, "\ntotals: hama=%d cyclops=%d (%.1fx fewer)\n",
		hama.Messages, cyc.Messages,
		float64(hama.Messages)/float64(max(cyc.Messages, 1)))
	return nil
}

func stepActive(r RunResult, s int) string {
	if s < len(r.Trace.Steps) {
		return fmt.Sprint(r.Trace.Steps[s].Active)
	}
	return "-"
}

func stepMsgs(r RunResult, s int) string {
	if s < len(r.Trace.Steps) {
		return fmt.Sprint(r.Trace.Steps[s].Messages)
	}
	return "-"
}
