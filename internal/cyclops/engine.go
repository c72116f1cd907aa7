// Package cyclops implements the paper's core contribution: a synchronous
// vertex-oriented graph engine computing over a distributed immutable view
// (§3). Each worker owns a partition of master vertices and holds read-only
// replicas of every remote vertex that has an out-edge into the partition.
// Only masters compute; they read their in-neighbors' last published values
// through shared memory (the immutable view), and when a master's published
// value changes it sends exactly one unidirectional sync message to each of
// its replicas. Replicas double as distributed activators: a sync message
// tagged with an activation request wakes the replica's local out-neighbors,
// so no replica→master traffic ever exists and message receipt is
// contention-free (§3.4).
//
// The same engine runs both flat Cyclops (M×W workers, one thread each) and
// hierarchical CyclopsMT (§5): configuring T compute threads and R receiver
// threads per worker stripes the compute phase and parallelises replica
// updates inside a worker, and the barrier cost model switches to the
// hierarchical (machine-level) barrier.
package cyclops

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"cyclops/internal/aggregate"
	"cyclops/internal/cluster"
	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
	"cyclops/internal/superstep"
	"cyclops/internal/transport"
)

// Program is a Cyclops vertex program with local semantics: Compute reads
// neighboring vertices' published values directly from the immutable view
// instead of receiving messages (compare Figure 5 with Figure 2).
//
// V is the master-side vertex state (e.g. a PageRank rank); M is the
// published value neighbors read (e.g. rank/outDegree — the paper's
// "message" stored at replicas). For many algorithms V == M.
type Program[V, M any] interface {
	// Init returns vertex id's initial state, its initially published value
	// (what neighbors see before the vertex first publishes), and whether
	// the vertex starts active. Init must be deterministic: it is evaluated
	// both at masters and to seed replica views.
	Init(id graph.ID, g *graph.Graph) (V, M, bool)
	// Compute runs on an active master vertex.
	Compute(ctx *Context[V, M])
}

// Config tunes an engine run.
type Config[V, M any] struct {
	// Cluster is the simulated topology. Workers() = graph partitions;
	// Threads and Receivers enable the hierarchical CyclopsMT mode.
	Cluster cluster.Config
	// Partitioner assigns masters to workers (default hash, as in Hama).
	Partitioner partition.Partitioner
	// MaxSupersteps bounds the run (default 100).
	MaxSupersteps int
	// Halt adds a termination test at each barrier besides the natural
	// "no vertex active" stop.
	Halt aggregate.HaltFunc
	// Equal detects republished-but-unchanged values for redundant-message
	// accounting. Optional. When set, publishing an unchanged value skips
	// the sync message entirely (replicas already hold it).
	Equal func(a, b M) bool
	// Residual maps a master's previous and newly published values to a
	// scalar distance (|Δ| for scalar algorithms). When set, each superstep's
	// StepStats carries the quantiles of this distribution over all
	// publishing masters — the convergence telemetry behind Figure 3.
	// Optional; nil skips the accounting entirely.
	Residual func(old, new M) float64
	// MsgCodec encodes a published value on the wire, inside sync frames
	// addressed by the send plan (syncCodec); wire accounting charges the
	// exact frame bytes on every network. Nil derives it from M
	// (graph.CodecFor: float64, int64, []float64); New fails for any other
	// message type until one is named here.
	MsgCodec graph.Codec[M]
	// Network selects in-process queues (default) or the same binary frames
	// over real loopback TCP sockets. Checkpointing requires InProcess.
	Network transport.Network
	// OnStep runs after each barrier (values consistent).
	OnStep func(step int, e *Engine[V, M])
	// Hooks receives live instrumentation events (run/superstep/phase spans
	// and per-worker stats). nil disables observation; the hot path then
	// pays only a nil-check per phase.
	Hooks obs.Hooks
	// Audit enables the replica-invariant auditor: after each SYN phase the
	// engine verifies that every replica equals its master's published value,
	// that each replica received at most one sync message, and that no
	// message targeted a master slot (§3.4's unidirectional-communication
	// invariants). Violations are reported in the obs.StepRecord and
	// fail the run with an *obs.AuditError. Off by default: auditing scans
	// every replica each superstep.
	Audit bool
	// CheckpointDir is where the engine checkpoints its masters (§3.6: no
	// replicas, no messages): a step-0 baseline as Run starts, then every
	// CheckpointEvery supersteps. A transient transport fault rolls back to
	// the newest checkpoint that loads, re-syncs every replica from its
	// master and replays; with no directory it fails the run. InProcess only.
	CheckpointDir   string
	CheckpointEvery int // 0: the baseline only; > 0 needs a CheckpointDir
	// FaultPlan injects a deterministic fault schedule at the transport
	// boundary (testing/chaos only). Same plan ⇒ same faults.
	FaultPlan *fault.Plan
}

// syncMsg refreshes one replica and optionally activates its local
// out-neighbors. Each replica receives at most one syncMsg per superstep.
type syncMsg[M any] struct {
	Slot     int32
	Val      M
	Activate bool
}

// workerState is one worker's share of the graph: master vertices in slots
// [0, numMasters) and replicas in slots [numMasters, numSlots).
//
// The adjacency structures are immutable CSR rows built once at ingress:
// flat offset-indexed arrays replace the per-slot Go slices, so the compute
// inner loop walks contiguous memory with no pointer chasing and the whole
// layout costs two allocations per relation instead of one per vertex.
type workerState[V, M any] struct {
	masters   []graph.ID         // slot → global id
	values    []V                // master state, len = numMasters
	view      []M                // the immutable view, len = numSlots
	in        graph.CSR[int32]   // per master: local slots of in-neighbors
	inWeights graph.CSR[float64] // parallel to in
	localOut  graph.CSR[int32]   // per slot: local master slots to activate
	outDeg    []int32            // per master: global out-degree
	inUnits   []int32            // per master: in-degree (compute units)

	frontier superstep.Frontier // over master slots: who computes now, who next

	// out holds the SND phase's per-destination batches. The backing arrays
	// are reused across supersteps ([:0] reset): the transport hands every
	// batch to this worker's own RECV drain within the same superstep, so by
	// the time SND runs again the previous batches are dead.
	out [][]syncMsg[M]
}

func (ws *workerState[V, M]) numMasters() int  { return len(ws.masters) }
func (ws *workerState[V, M]) numReplicas() int { return len(ws.view) - len(ws.masters) }

// IngressStats reports the Figure 13(1) breakdown of graph ingress.
type IngressStats struct {
	// Replication is the time spent creating replicas and wiring the view.
	Replication time.Duration
	// Init is the time spent evaluating Program.Init for masters and
	// replica seeds.
	Init time.Duration
	// Replicas is the total replica count; Replicas/|V| is the replication
	// factor of Figure 11.
	Replicas int64
}

// Engine executes a Program over the distributed immutable view.
type Engine[V, M any] struct {
	g       *graph.Graph
	prog    Program[V, M]
	cfg     Config[V, M]
	assign  *partition.Assignment
	layout  *partition.Layout      // vertex → master slot on its owner
	plan    []graph.CSR[planEntry] // per worker, one row per peer: the replica topology
	ws      []*workerState[V, M]
	tr      transport.Interface[syncMsg[M]]
	inj     superstep.Injector // nil without a FaultPlan
	agg     *aggregate.Registry
	trace   *metrics.Trace
	ingress IngressStats
	step    int

	// runSeq numbers Run calls on this engine (1-based); it becomes the
	// span stream's Run id, so restored engines keep distinct run spans.
	runSeq int64
}

// New partitions the graph, creates the replicas that form the distributed
// immutable view (the paper's extra ingress superstep, §4.3), and seeds
// every master and replica with the program's initial published value.
func New[V, M any](g *graph.Graph, prog Program[V, M], cfg Config[V, M]) (*Engine[V, M], error) {
	if g == nil || prog == nil {
		return nil, errors.New("cyclops: graph and program are required")
	}
	cfg.Cluster = cfg.Cluster.Normalize()
	if cfg.Partitioner == nil {
		cfg.Partitioner = partition.Hash{}
	}
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = 100
	}
	workers := cfg.Cluster.Workers()
	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("cyclops: %w", superstep.ErrNoCheckpointDir)
	}
	if cfg.Network != transport.InProcess && cfg.CheckpointDir != "" {
		return nil, errors.New("cyclops: checkpointing requires the in-process network")
	}
	assign, err := cfg.Partitioner.Partition(g, workers)
	if err != nil {
		return nil, fmt.Errorf("cyclops: partition: %w", err)
	}
	if cfg.MsgCodec == nil {
		if cfg.MsgCodec, err = graph.CodecFor[M](); err != nil {
			return nil, fmt.Errorf("cyclops: %w", err)
		}
	}
	name := "cyclops"
	if cfg.Cluster.Threads > 1 || cfg.Cluster.Receivers > 1 {
		name = "cyclopsmt"
	}
	e := &Engine[V, M]{
		g:      g,
		prog:   prog,
		cfg:    cfg,
		assign: assign,
		ws:     make([]*workerState[V, M], workers),
		agg:    aggregate.NewRegistry(),
		trace:  &metrics.Trace{Engine: name, Workers: workers},
	}
	if err := e.buildView(); err != nil {
		return nil, fmt.Errorf("cyclops: %w", err)
	}
	// The sync codec addresses replicas through the plan buildView fixed.
	tr, err := transport.New[syncMsg[M]](cfg.Network, workers, transport.PerSenderQueue,
		nil, syncCodec[M]{inner: cfg.MsgCodec, width: graph.FixedSize(cfg.MsgCodec), plan: e.plan})
	if err != nil {
		return nil, fmt.Errorf("cyclops: transport: %w", err)
	}
	if cfg.FaultPlan != nil {
		wrapped := fault.Wrap(tr, *cfg.FaultPlan)
		tr, e.inj = wrapped, wrapped
	}
	e.tr = tr
	return e, nil
}

// buildView performs the replica-creation ingress phase (§4.3): a worker
// holds a replica of every remote vertex with an out-edge into its
// partition, reads each in-edge through its source's master or replica slot,
// and activates along every out-edge that reaches one of its masters; the
// source's worker pairs master and replica in its send plan for that peer.
//
// Each worker's rows are gathered in slot order from the graph's CSR, in the
// order one append-driven pass over the out-edges (u ascending) leaves them:
// an in-row is InNeighbors, by source with ties in out-edge order; replica
// slots, activation rows and plan rows follow ascending vertex ids. The flight
// recorder's byte-identical series depend on that order.
func (e *Engine[V, M]) buildView() error {
	workers := e.cfg.Cluster.Workers()
	n := e.g.NumVertices()

	repStart := time.Now()
	layout, err := partition.NewLayout(e.assign, n)
	if err != nil {
		return err
	}
	e.layout = layout
	of := e.assign.Of
	// Scratch every worker reuses in turn: local[u] is u's slot on the worker
	// being built, -1 for a vertex it does not hold (and between workers);
	// held marks its replicas, and reps lists them in ascending order.
	local := make([]int32, n)
	for u := range local {
		local[u] = -1
	}
	held := make([]uint64, (n+63)/64)
	var reps []graph.ID
	plans := make([][]planEntry, workers) // per sender: rows filled peer by peer
	planOff := make([][]int64, workers)
	for w := range planOff {
		planOff[w] = make([]int64, workers+1)
	}
	for w := 0; w < workers; w++ {
		ws := &workerState[V, M]{masters: layout.Masters(w)}
		e.ws[w] = ws
		m := ws.numMasters()
		ws.values = make([]V, m)
		ws.outDeg = make([]int32, m)
		ws.inUnits = make([]int32, m)
		ws.frontier = superstep.NewFrontier(m)
		ws.out = make([][]syncMsg[M], workers)
		inOff := make([]int64, m+1) // shared by in and inWeights
		for i, v := range ws.masters {
			ws.outDeg[i] = int32(e.g.OutDegree(v))
			ws.inUnits[i] = int32(e.g.InDegree(v))
			inOff[i+1] = inOff[i] + int64(ws.inUnits[i])
			local[v] = int32(i)
		}
		// Every in-neighbour that w does not master is a replica; the sign bit
		// of local marks it without a branch.
		for _, v := range ws.masters {
			for _, u := range e.g.InNeighbors(v) {
				held[u/64] |= uint64(local[u]>>31&1) << (u % 64)
			}
		}
		reps = reps[:0]
		for i, word := range held {
			for ; word != 0; word &= word - 1 {
				u := graph.ID(i*64 + bits.TrailingZeros64(word))
				local[u] = int32(m + len(reps))
				reps = append(reps, u)
				plans[of[u]] = append(plans[of[u]], planEntry{master: layout.Slot[u], replica: local[u]})
			}
			held[i] = 0
		}
		for p := range planOff {
			planOff[p][w+1] = int64(len(plans[p]))
		}

		in, inW := make([]int32, inOff[m]), make([]float64, inOff[m])
		for i, v := range ws.masters {
			row := in[inOff[i]:inOff[i+1]]
			for j, u := range e.g.InNeighbors(v) {
				row[j] = local[u]
			}
			copy(inW[inOff[i]:], e.g.InWeights(v))
		}
		// A slot's activation row: its vertex's out-neighbours mastered here,
		// one per in-edge of a master. With the replicas out of local, a
		// non-negative local[v] keeps v, without a branch.
		for _, u := range reps {
			local[u] = -1
		}
		out, outOff, k := make([]int32, inOff[m]+1), make([]int64, 1, m+len(reps)+1), int64(0)
		for _, slots := range [][]graph.ID{ws.masters, reps} {
			for _, u := range slots {
				for _, v := range e.g.OutNeighbors(u) {
					out[k] = local[v]
					k += int64(^local[v] >> 31 & 1)
				}
				outOff = append(outOff, k)
			}
		}
		for _, v := range ws.masters {
			local[v] = -1
		}
		ws.in, ws.inWeights = graph.NewCSR(inOff, in), graph.NewCSR(inOff, inW)
		ws.localOut = graph.NewCSR(outOff, out[:k])
		ws.view = make([]M, m+len(reps))
		e.ingress.Replicas += int64(len(reps))
	}
	e.plan = make([]graph.CSR[planEntry], workers)
	for w := range e.plan {
		e.plan[w] = graph.NewCSR(planOff[w], plans[w])
	}
	e.ingress.Replication = time.Since(repStart)

	// Seed values and views. Init is deterministic, so a replica's seed is
	// its master's: one unidirectional copy, as every later sync.
	initStart := time.Now()
	for _, ws := range e.ws {
		for i, id := range ws.masters {
			v, m, act := e.prog.Init(id, e.g)
			ws.values[i], ws.view[i] = v, m
			ws.frontier.Set(i, act)
		}
	}
	e.refreshReplicas()
	e.ingress.Init = time.Since(initStart)
	return nil
}

// Graph returns the input graph.
func (e *Engine[V, M]) Graph() *graph.Graph { return e.g }

// Assignment exposes the partition.
func (e *Engine[V, M]) Assignment() *partition.Assignment { return e.assign }

// Aggregates exposes the folded aggregator values of the last barrier.
func (e *Engine[V, M]) Aggregates() *aggregate.Registry { return e.agg }

// Trace returns per-superstep statistics.
func (e *Engine[V, M]) Trace() *metrics.Trace { return e.trace }

// Ingress returns the replica-creation statistics (Figure 13(1), Table 4).
func (e *Engine[V, M]) Ingress() IngressStats { return e.ingress }

// ReplicationFactor returns replicas per vertex (Figure 11).
func (e *Engine[V, M]) ReplicationFactor() float64 {
	if e.g.NumVertices() == 0 {
		return 0
	}
	return float64(e.ingress.Replicas) / float64(e.g.NumVertices())
}

// Superstep reports the current superstep index.
func (e *Engine[V, M]) Superstep() int { return e.step }

// Values assembles the global vertex state indexed by vertex id.
func (e *Engine[V, M]) Values() []V {
	out := make([]V, e.g.NumVertices())
	for _, ws := range e.ws {
		for i, id := range ws.masters {
			out[id] = ws.values[i]
		}
	}
	return out
}

// TransportStats exposes raw traffic counters.
func (e *Engine[V, M]) TransportStats() transport.Snapshot { return e.tr.Stats().Snapshot() }

// workerReplicas reports how many replicas each worker hosts (the skew
// profiler's replica-placement vector).
func (e *Engine[V, M]) workerReplicas() []int64 {
	out := make([]int64, len(e.ws))
	for w, ws := range e.ws {
		out[w] = int64(ws.numReplicas())
	}
	return out
}

// Close releases transport resources (sockets in TCPLoopback mode).
func (e *Engine[V, M]) Close() error { return e.tr.Close() }
