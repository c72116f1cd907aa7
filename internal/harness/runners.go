package harness

import (
	"fmt"
	"time"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/fault"
	"cyclops/internal/gas"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// Params tunes one RunWorkload call. The exported fields are what a caller
// outside this package (cmd/cyclops-run) chooses; the rest belong to the
// experiments.
type Params struct {
	// MaxSteps is the superstep budget, handed to the engine verbatim. ALS
	// ignores it: its length is 2 × alsSweeps by construction.
	MaxSteps int
	// Eps is PageRank's convergence bound: the Halt threshold on Hama, the
	// per-vertex activation bound elsewhere, and the width of "same value"
	// for redundant-message accounting.
	Eps float64
	// Source is the SSSP source vertex.
	Source graph.ID
	Audit  bool
	Hooks  obs.Hooks
	// Faults, when set, runs the workload under a fault plan with periodic
	// checkpoints and recovery (§3.6).
	Faults *FaultSpec

	alsSweeps   int
	alsUsers    int
	cut         gas.EdgePartitioner // powergraph's vertex-cut; nil = random
	trackMemory bool
	forceGC     bool
	onValues    func(step int, values []float64)
}

// FaultSpec arms a run for fault injection: Plan is injected at the transport
// boundary, the engine checkpoints into Dir every Every supersteps (after its
// own step-0 baseline) and rolls back to the latest checkpoint on a transient
// fault. The caller owns Dir.
type FaultSpec struct {
	Plan  fault.Plan
	Every int
	Dir   string
}

// RunWorkload runs one (engine, algorithm) row. It is the one place that
// pairs an algorithm with an engine: the vertex program, the message codec
// (scalar messages get theirs from graph.CodecFor inside the engine; ALSMsg
// and PRValue name one here), Equal/Residual/Halt, and the projection of the
// result onto []float64. cyclops-run, every experiment and the faults
// experiment run these rows, so their records are comparable by
// construction. engine is "hama", "cyclops" (flat or MT depending on cc) or
// "powergraph"; algo is "PR", "SSSP", "CD", "CC" or "ALS". part is ignored
// by powergraph, which cuts edges (Params.cut).
func RunWorkload(engine, algo string, g *graph.Graph, cc cluster.Config,
	part partition.Partitioner, p Params) (RunResult, error) {

	r := RunResult{Engine: engine, Config: cc}
	if n := cc.Normalize(); engine == "cyclops" && (n.Threads > 1 || n.Receivers > 1) {
		r.Engine = "cyclopsmt"
	}
	als := alsConfig(p.alsUsers, p.alsSweeps)
	if algo == "ALS" && p.alsUsers <= 0 {
		return r, fmt.Errorf("harness: ALS needs the bipartite graph's user count, which only the experiments supply")
	}
	// "Same value" at the working epsilon: the redundant-message metric of
	// Figure 3(2) counts re-sends of converged ranks.
	sameRank := func(a, b float64) bool { return abs64(a-b) < p.Eps }

	var err error
	switch engine + "/" + algo {
	case "hama/PR":
		err = runBSP(&r, g, part, p, algorithms.PageRankBSP{Eps: p.Eps}, bsp.Config[float64, float64]{
			Halt: haltForPR(g.NumVertices(), p.Eps), Equal: sameRank, Residual: scalarResidual}, floats)
	case "hama/SSSP":
		err = runBSP(&r, g, part, p, algorithms.SSSPBSP{Source: p.Source}, bsp.Config[float64, float64]{
			Residual: scalarResidual}, floats)
	case "hama/CD":
		err = runBSP(&r, g, part, p, algorithms.CDBSP{}, bsp.Config[int64, int64]{
			Halt: algorithms.CDHalt(), Residual: labelResidual}, int64sToFloats)
	case "hama/CC":
		err = runBSP(&r, g, part, p, algorithms.CCBSP{}, bsp.Config[int64, int64]{
			Residual: labelResidual}, int64sToFloats)
	case "hama/ALS":
		p.MaxSteps = als.TotalSupersteps() + 4
		err = runBSP(&r, g, part, p, algorithms.ALSBSP{Cfg: als}, bsp.Config[[]float64, algorithms.ALSMsg]{
			MsgCodec: algorithms.ALSMsgCodec{}}, flatten)
	case "cyclops/PR":
		err = runCyclops(&r, g, part, p, algorithms.PageRankCyclops{Eps: p.Eps}, cyclops.Config[float64, float64]{
			Equal: sameRank, Residual: scalarResidual}, floats)
	case "cyclops/SSSP":
		err = runCyclops(&r, g, part, p, algorithms.SSSPCyclops{Source: p.Source}, cyclops.Config[float64, float64]{
			Residual: scalarResidual}, floats)
	case "cyclops/CD":
		err = runCyclops(&r, g, part, p, algorithms.CDCyclops{}, cyclops.Config[int64, int64]{
			Residual: labelResidual}, int64sToFloats)
	case "cyclops/CC":
		err = runCyclops(&r, g, part, p, algorithms.CCCyclops{}, cyclops.Config[int64, int64]{
			Residual: labelResidual}, int64sToFloats)
	case "cyclops/ALS":
		p.MaxSteps = als.TotalSupersteps()
		err = runCyclops(&r, g, part, p, algorithms.ALSCyclops{Cfg: als}, cyclops.Config[[]float64, []float64]{}, flatten)
	case "powergraph/PR":
		err = runGAS(&r, g, p, algorithms.NewPageRankGAS(g, p.MaxSteps, p.Eps), gas.Config[algorithms.PRValue, float64]{
			ValCodec: algorithms.PRValueCodec{},
			Residual: func(old, new algorithms.PRValue) float64 { return abs64(old.Rank - new.Rank) }},
			algorithms.Ranks)
	case "powergraph/SSSP":
		err = runGAS(&r, g, p, algorithms.SSSPGAS{Source: p.Source}, gas.Config[float64, float64]{
			Residual: scalarResidual}, floats)
	default:
		return r, fmt.Errorf("harness: no row for engine %q running algorithm %q", engine, algo)
	}
	return r, err
}

// alsConfig is the SYN-GL setup at laptop scale (d=8, λ=0.05).
func alsConfig(users, sweeps int) algorithms.ALSConfig {
	return algorithms.ALSConfig{Users: users, D: 8, Lambda: 0.05, Sweeps: sweeps}
}

// runnable is what finish needs of a constructed engine, whatever its type
// parameters: V is the vertex value.
type runnable[V any] interface {
	Run() (*metrics.Trace, error)
	TransportStats() transport.Snapshot
	Values() []V
}

// finish runs a constructed engine and books what every engine reports the
// same way: trace, transport counters, wall time, the totals derived from the
// trace and the projected values.
func finish[V any](r *RunResult, e runnable[V], project func([]V) []float64) error {
	start := time.Now()
	trace, err := e.Run()
	if err != nil {
		return err
	}
	r.Trace = trace
	r.Transport = e.TransportStats()
	r.Wall = time.Since(start)
	r.ModelMs = trace.ModelTime() / 1e6
	r.Messages = trace.TotalMessages()
	r.Supersteps = len(trace.Steps)
	r.Values = project(e.Values())
	return nil
}

// The three run* helpers fill in what every row of one engine shares — the
// cluster, budget, observers, per-barrier sampling and the fault wiring —
// around the row's own Config fields.

func runBSP[V, M any](r *RunResult, g *graph.Graph, part partition.Partitioner, p Params,
	prog bsp.Program[V, M], cfg bsp.Config[V, M], project func([]V) []float64) error {

	mem := newHeapTracker(p.trackMemory, p.forceGC)
	cfg.Cluster, cfg.Partitioner, cfg.MaxSupersteps = r.Config, part, p.MaxSteps
	cfg.Hooks, cfg.Audit = p.Hooks, p.Audit
	cfg.OnStep = func(step int, e *bsp.Engine[V, M]) {
		mem.sample()
		if p.onValues != nil {
			p.onValues(step, project(e.Values()))
		}
	}
	if f := p.Faults; f != nil {
		cfg.FaultPlan, cfg.CheckpointDir, cfg.CheckpointEvery = &f.Plan, f.Dir, f.Every
	}
	e, err := bsp.New(g, prog, cfg)
	if err != nil {
		return err
	}
	if err := finish(r, e, project); err != nil {
		return err
	}
	mem.finish(r)
	return nil
}

func runCyclops[V, M any](r *RunResult, g *graph.Graph, part partition.Partitioner, p Params,
	prog cyclops.Program[V, M], cfg cyclops.Config[V, M], project func([]V) []float64) error {

	mem := newHeapTracker(p.trackMemory, p.forceGC)
	cfg.Cluster, cfg.Partitioner, cfg.MaxSupersteps = r.Config, part, p.MaxSteps
	cfg.Hooks, cfg.Audit = p.Hooks, p.Audit
	cfg.OnStep = func(step int, e *cyclops.Engine[V, M]) {
		mem.sample()
		if p.onValues != nil {
			p.onValues(step, project(e.Values()))
		}
	}
	if f := p.Faults; f != nil {
		cfg.FaultPlan, cfg.CheckpointDir, cfg.CheckpointEvery = &f.Plan, f.Dir, f.Every
	}
	e, err := cyclops.New(g, prog, cfg)
	if err != nil {
		return err
	}
	if err := finish(r, e, project); err != nil {
		return err
	}
	r.Replication, r.Ingress = e.ReplicationFactor(), e.Ingress()
	mem.finish(r)
	return nil
}

func runGAS[V, G any](r *RunResult, g *graph.Graph, p Params,
	prog gas.Program[V, G], cfg gas.Config[V, G], project func([]V) []float64) error {

	cfg.Cluster, cfg.Partitioner, cfg.MaxSupersteps = r.Config, p.cut, p.MaxSteps
	cfg.Hooks, cfg.Audit = p.Hooks, p.Audit
	if f := p.Faults; f != nil {
		cfg.FaultPlan, cfg.CheckpointDir, cfg.CheckpointEvery = &f.Plan, f.Dir, f.Every
	}
	e, err := gas.New(g, prog, cfg)
	if err != nil {
		return err
	}
	if err := finish(r, e, project); err != nil {
		return err
	}
	r.Replication = e.ReplicationFactor()
	return nil
}

// The []float64 projections of RunResult.Values.

func floats(v []float64) []float64 { return v }

// int64sToFloats widens CD/CC labels.
func int64sToFloats(in []int64) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

// flatten lays ALS's per-vertex latent vectors end to end.
func flatten(vecs [][]float64) []float64 {
	var out []float64
	for _, v := range vecs {
		out = append(out, v...)
	}
	return out
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// scalarResidual is the |Δ| convergence distance for float64-valued
// algorithms (PageRank ranks, SSSP distances).
func scalarResidual(old, new float64) float64 { return abs64(old - new) }

// labelResidual treats a community-detection relabel as distance 1 and a
// republished label as 0, so the residual quantiles read as the changed
// fraction (labels are ids, not a metric space).
func labelResidual(old, new int64) float64 {
	if old == new {
		return 0
	}
	return 1
}
