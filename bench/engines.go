package main

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
	"cyclops/internal/obs"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// The three engine layers, by module name.
const (
	layerCyclops = "cyclops"
	layerBSP     = "bsp"
	layerGAS     = "gas"
)

var engineLayers = []string{layerCyclops, layerBSP, layerGAS}

type algorithm int

const (
	pageRank algorithm = iota // fixed iteration count, Eps 0
	sssp                      // source 0, runs to the fixpoint
)

// workers is the cluster every workload runs on: two single-threaded workers,
// the smallest cluster that has replicas, mirrors and remote messages.
var workers = cluster.Flat(2, 1)

// parted is what the partition stage produced: a vertex assignment for the
// edge-cut engines (cyclops, bsp) or an edge → worker table for gas.
type parted struct {
	assign *partition.Assignment
	edges  []int
}

// cachedAssignment and cachedCut hand an engine the assignment the partition
// stage already computed, so that <engine>.New times construction and ingress
// only.
type cachedAssignment struct{ a *partition.Assignment }

func (cachedAssignment) Name() string { return "cached" }
func (c cachedAssignment) Partition(*graph.Graph, int) (*partition.Assignment, error) {
	return c.a, nil
}

type cachedCut struct{ owner []int }

func (cachedCut) Name() string                             { return "cached" }
func (c cachedCut) PartitionEdges(*graph.Graph, int) []int { return c.owner }

// engineFacts are the layer-specific numbers an engine exports besides its
// trace; fields an engine does not have stay zero.
type engineFacts struct {
	ingressReplication time.Duration // cyclops: replica creation + view wiring
	ingressInit        time.Duration // cyclops: Program.Init over masters and replicas
	replicas           int64         // cyclops replicas, gas mirrors
	replication        float64       // replicas (mirrors) per vertex
}

// instance is one constructed engine, driven through the calls all three
// engines export.
type instance interface {
	Run() (*metrics.Trace, error)
	TransportStats() transport.Snapshot
	Close() error
	result() []float64
	facts() engineFacts
}

type cyclopsInstance struct {
	*cyclops.Engine[float64, float64]
}

func (c cyclopsInstance) result() []float64 { return c.Values() }
func (c cyclopsInstance) facts() engineFacts {
	in := c.Ingress()
	return engineFacts{
		ingressReplication: in.Replication,
		ingressInit:        in.Init,
		replicas:           in.Replicas,
		replication:        c.ReplicationFactor(),
	}
}

type bspInstance struct {
	*bsp.Engine[float64, float64]
}

func (b bspInstance) result() []float64 { return b.Values() }
func (bspInstance) facts() engineFacts  { return engineFacts{} }

type gasInstance struct {
	*gas.Engine[algorithms.PRValue, float64]
}

func (g gasInstance) result() []float64 { return algorithms.Ranks(g.Values()) }
func (g gasInstance) facts() engineFacts {
	return engineFacts{replicas: g.Mirrors(), replication: g.ReplicationFactor()}
}

// job fixes everything about an engine construction except the engine.
type job struct {
	g     *graph.Graph
	algo  algorithm
	iters int // PageRank iterations; ignored by sssp
	net   transport.Network
	hooks obs.Hooks
}

// maxSupersteps bounds a run: PageRank stops at its iteration count (Hama
// spends one extra superstep seeding shares), SSSP at its fixpoint, which
// Bellman-Ford reaches within |V| rounds.
func (j job) maxSupersteps(layer string) int {
	if j.algo == sssp {
		return j.g.NumVertices() + 1
	}
	if layer == layerBSP {
		return j.iters + 1
	}
	return j.iters
}

// construct builds a fresh engine of the given layer. The codecs are the ones
// the repository's own harness runs with, so the wire books count real frame
// bytes on both transports. SSSP runs on cyclops only, as in the workloads.
func (j job) construct(layer string, p parted) (instance, error) {
	if j.algo == sssp && layer != layerCyclops {
		return nil, fmt.Errorf("the benchmark runs SSSP on %s only, not on %s", layerCyclops, layer)
	}
	steps := j.maxSupersteps(layer)
	switch layer {
	case layerCyclops:
		cfg := cyclops.Config[float64, float64]{
			Cluster: workers, Partitioner: cachedAssignment{p.assign}, MaxSupersteps: steps,
			MsgCodec: graph.Float64Codec{}, Network: j.net, Hooks: j.hooks,
		}
		var prog cyclops.Program[float64, float64] = algorithms.PageRankCyclops{}
		if j.algo == sssp {
			prog = algorithms.SSSPCyclops{Source: 0}
		}
		e, err := cyclops.New[float64, float64](j.g, prog, cfg)
		if err != nil {
			return nil, err
		}
		return cyclopsInstance{e}, nil
	case layerBSP:
		cfg := bsp.Config[float64, float64]{
			Cluster: workers, Partitioner: cachedAssignment{p.assign}, MaxSupersteps: steps,
			MsgCodec: graph.Float64Codec{}, Network: j.net, Hooks: j.hooks,
		}
		e, err := bsp.New[float64, float64](j.g, algorithms.PageRankBSP{}, cfg)
		if err != nil {
			return nil, err
		}
		return bspInstance{e}, nil
	case layerGAS:
		e, err := gas.New[algorithms.PRValue, float64](j.g, algorithms.NewPageRankGAS(j.g, j.iters, 0),
			gas.Config[algorithms.PRValue, float64]{
				Cluster: workers, Partitioner: cachedCut{p.edges}, MaxSupersteps: steps,
				ValCodec: algorithms.PRValueCodec{}, AccCodec: graph.Float64Codec{},
				Network: j.net, Hooks: j.hooks,
			})
		if err != nil {
			return nil, err
		}
		return gasInstance{e}, nil
	}
	return nil, fmt.Errorf("unknown engine layer %q", layer)
}
