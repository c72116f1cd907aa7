package harness

import (
	"fmt"
	"time"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// The engine runners instantiate the right generic engine/program pair for
// each Table 1 workload. ALS hyper-parameters follow the SYN-GL setup at
// laptop scale (d=8, λ=0.05), SSSP uses source 0, CD caps at cdIters rounds
// (synchronous label propagation may legitimately oscillate).

// runEngine runs a constructed engine and books what every engine reports
// the same way — trace, transport counters, wall time and the totals derived
// from the trace — leaving each caller only its engine-specific fields.
func runEngine(r *RunResult, e interface {
	Run() (*metrics.Trace, error)
	TransportStats() transport.Snapshot
}) error {
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
	return nil
}

func alsConfig(users, sweeps int) algorithms.ALSConfig {
	return algorithms.ALSConfig{Users: users, D: 8, Lambda: 0.05, Sweeps: sweeps}
}

func runHama(algo string, g *graph.Graph, cc cluster.Config,
	part partition.Partitioner, p runParams) (RunResult, error) {

	r := RunResult{Engine: "hama", Config: cc}
	mem := newHeapTracker(p.trackMemory, p.forceGC)
	switch algo {
	case "PR":
		e, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{Eps: p.eps},
			bsp.Config[float64, float64]{
				Cluster:       cc,
				Partitioner:   part,
				MaxSupersteps: p.maxSteps,
				Hooks:         p.hooks,
				Audit:         p.audit,
				Halt:          haltForPR(g.NumVertices(), p.eps),
				MsgCodec:      graph.Float64Codec{},
				// "Same value" at the working epsilon: the redundant-message
				// metric of Figure 3(2) counts re-sends of converged ranks.
				Equal:    func(a, b float64) bool { return abs64(a-b) < p.eps },
				Residual: scalarResidual,
				OnStep: func(step int, e *bsp.Engine[float64, float64]) {
					mem.sample()
					if p.onValues != nil {
						p.onValues(step, e.Values())
					}
				},
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
		r.Values = append([]float64(nil), e.Values()...)
	case "SSSP":
		e, err := bsp.New[float64, float64](g, algorithms.SSSPBSP{Source: 0},
			bsp.Config[float64, float64]{
				Cluster: cc, Partitioner: part, MaxSupersteps: p.maxSteps * 10,
				Hooks:    p.hooks,
				Audit:    p.audit,
				MsgCodec: graph.Float64Codec{},
				Residual: scalarResidual,
				OnStep:   func(int, *bsp.Engine[float64, float64]) { mem.sample() },
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
		r.Values = append([]float64(nil), e.Values()...)
	case "CD":
		e, err := bsp.New[int64, int64](g, algorithms.CDBSP{},
			bsp.Config[int64, int64]{
				Cluster: cc, Partitioner: part, MaxSupersteps: p.cdIters + 1,
				Hooks:    p.hooks,
				Audit:    p.audit,
				Halt:     algorithms.CDHalt(),
				MsgCodec: graph.Int64Codec{},
				Residual: labelResidual,
				OnStep:   func(int, *bsp.Engine[int64, int64]) { mem.sample() },
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
		r.Values = int64sToFloats(e.Values())
	case "ALS":
		cfg := alsConfig(p.alsUsers, p.alsSweeps)
		e, err := bsp.New[[]float64, algorithms.ALSMsg](g, algorithms.ALSBSP{Cfg: cfg},
			bsp.Config[[]float64, algorithms.ALSMsg]{
				Cluster: cc, Partitioner: part, MaxSupersteps: cfg.TotalSupersteps() + 4,
				Hooks:     p.hooks,
				Audit:     p.audit,
				SizeOfMsg: func(m algorithms.ALSMsg) int64 { return int64(8*len(m.Vec)) + 8 },
				MsgCodec:  algorithms.ALSMsgCodec{},
				OnStep:    func(int, *bsp.Engine[[]float64, algorithms.ALSMsg]) { mem.sample() },
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
	default:
		return r, fmt.Errorf("harness: unknown algorithm %q", algo)
	}
	mem.finish(&r)
	return r, nil
}

func runCyclops(algo string, g *graph.Graph, cc cluster.Config,
	part partition.Partitioner, p runParams) (RunResult, error) {

	r := RunResult{Engine: "cyclops", Config: cc}
	if cc.Normalize().Threads > 1 || cc.Normalize().Receivers > 1 {
		r.Engine = "cyclopsmt"
	}
	mem := newHeapTracker(p.trackMemory, p.forceGC)
	switch algo {
	case "PR":
		e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: p.eps},
			cyclops.Config[float64, float64]{
				Cluster: cc, Partitioner: part, MaxSupersteps: p.maxSteps,
				Hooks:    p.hooks,
				Audit:    p.audit,
				MsgCodec: graph.Float64Codec{},
				Equal:    func(a, b float64) bool { return abs64(a-b) < p.eps },
				Residual: scalarResidual,
				OnStep: func(step int, e *cyclops.Engine[float64, float64]) {
					mem.sample()
					if p.onValues != nil {
						p.onValues(step, e.Values())
					}
				},
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
		r.Values = e.Values()
		r.Replication = e.ReplicationFactor()
		r.Ingress = e.Ingress()
	case "SSSP":
		e, err := cyclops.New[float64, float64](g, algorithms.SSSPCyclops{Source: 0},
			cyclops.Config[float64, float64]{
				Cluster: cc, Partitioner: part, MaxSupersteps: p.maxSteps * 10,
				Hooks:    p.hooks,
				Audit:    p.audit,
				MsgCodec: graph.Float64Codec{},
				Residual: scalarResidual,
				OnStep:   func(int, *cyclops.Engine[float64, float64]) { mem.sample() },
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
		r.Values = e.Values()
		r.Replication = e.ReplicationFactor()
		r.Ingress = e.Ingress()
	case "CD":
		e, err := cyclops.New[int64, int64](g, algorithms.CDCyclops{},
			cyclops.Config[int64, int64]{
				Cluster: cc, Partitioner: part, MaxSupersteps: p.cdIters,
				Hooks:    p.hooks,
				Audit:    p.audit,
				MsgCodec: graph.Int64Codec{},
				Residual: labelResidual,
				OnStep:   func(int, *cyclops.Engine[int64, int64]) { mem.sample() },
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
		r.Values = int64sToFloats(e.Values())
		r.Replication = e.ReplicationFactor()
		r.Ingress = e.Ingress()
	case "ALS":
		cfg := alsConfig(p.alsUsers, p.alsSweeps)
		e, err := cyclops.New[[]float64, []float64](g, algorithms.ALSCyclops{Cfg: cfg},
			cyclops.Config[[]float64, []float64]{
				Cluster: cc, Partitioner: part, MaxSupersteps: cfg.TotalSupersteps(),
				Hooks:     p.hooks,
				Audit:     p.audit,
				SizeOfMsg: func(m []float64) int64 { return int64(8 * len(m)) },
				MsgCodec:  graph.Float64SliceCodec{},
				OnStep:    func(int, *cyclops.Engine[[]float64, []float64]) { mem.sample() },
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
		r.Replication = e.ReplicationFactor()
		r.Ingress = e.Ingress()
	default:
		return r, fmt.Errorf("harness: unknown algorithm %q", algo)
	}
	mem.finish(&r)
	return r, nil
}

// runGAS supports the workloads the paper compares against PowerGraph (PR
// and SSSP).
func runGAS(algo string, g *graph.Graph, cc cluster.Config, p runParams) (RunResult, error) {
	return runGASWithCut(algo, g, cc, gas.RandomVertexCut{}, p)
}

func runGASWithCut(algo string, g *graph.Graph, cc cluster.Config,
	cut gas.EdgePartitioner, p runParams) (RunResult, error) {

	r := RunResult{Engine: "powergraph", Config: cc}
	switch algo {
	case "PR":
		e, err := gas.New[algorithms.PRValue, float64](g,
			algorithms.NewPageRankGAS(g, p.maxSteps, p.eps),
			gas.Config[algorithms.PRValue, float64]{
				Cluster: cc, Partitioner: cut, MaxSupersteps: p.maxSteps,
				Hooks:    p.hooks,
				Audit:    p.audit,
				ValCodec: algorithms.PRValueCodec{},
				AccCodec: graph.Float64Codec{},
				Residual: func(old, new algorithms.PRValue) float64 {
					return abs64(old.Rank - new.Rank)
				},
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
		r.Values = algorithms.Ranks(e.Values())
		r.Replication = e.ReplicationFactor()
	case "SSSP":
		e, err := gas.New[float64, float64](g, algorithms.SSSPGAS{Source: 0},
			gas.Config[float64, float64]{
				Cluster: cc, Partitioner: cut, MaxSupersteps: p.maxSteps * 10,
				Hooks:    p.hooks,
				Audit:    p.audit,
				ValCodec: graph.Float64Codec{},
				AccCodec: graph.Float64Codec{},
				Residual: scalarResidual,
			})
		if err != nil {
			return r, err
		}
		if err := runEngine(&r, e); err != nil {
			return r, err
		}
		r.Values = e.Values()
		r.Replication = e.ReplicationFactor()
	default:
		return r, fmt.Errorf("harness: algorithm %q not implemented on the GAS engine", algo)
	}
	return r, nil
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
