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
	// SizeOfMsg estimates a published value's wire size (nil = 16 bytes).
	SizeOfMsg func(M) int64
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
		wrapSize[M](cfg.SizeOfMsg), syncCodec[M]{inner: cfg.MsgCodec, width: graph.FixedSize(cfg.MsgCodec), plan: e.plan})
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

func wrapSize[M any](sizeOf func(M) int64) func(syncMsg[M]) int64 {
	if sizeOf == nil {
		return nil
	}
	return func(m syncMsg[M]) int64 { return 5 + sizeOf(m.Val) }
}

// buildView performs the replica-creation ingress phase (§4.3): every vertex
// "sends a message" along its out-edges; the receiving worker creates a
// replica for each remote source, wires an in-edge from it, and records a
// local out-edge so the replica can activate the target later; the source's
// worker appends the (master, replica) pair to its send plan for that peer.
//
// The edge walk runs twice over the graph's CSR — the assemblers count on
// the first run and store on the second — and discovers replicas in the same
// order both times, so replica slots and every row's neighbor order are
// those of one append-driven pass; the flight recorder's byte-identical
// series depend on that order.
func (e *Engine[V, M]) buildView() error {
	workers := e.cfg.Cluster.Workers()
	n := e.g.NumVertices()

	repStart := time.Now()
	layout, err := partition.NewLayout(e.assign, n)
	if err != nil {
		return err
	}
	e.layout = layout
	in := make([]graph.CSRAssembler[int32], workers)
	inW := make([]graph.CSRAssembler[float64], workers)
	out := make([]graph.CSRAssembler[int32], workers) // grows past masters as replicas appear
	plan := make([]graph.CSRAssembler[planEntry], workers)
	for w := 0; w < workers; w++ {
		ws := &workerState[V, M]{masters: layout.Masters(w)}
		e.ws[w] = ws
		m := ws.numMasters()
		ws.values = make([]V, m)
		ws.outDeg = make([]int32, m)
		ws.inUnits = make([]int32, m)
		ws.frontier = superstep.NewFrontier(m)
		ws.out = make([][]syncMsg[M], workers)
		for i, id := range ws.masters {
			ws.outDeg[i] = int32(e.g.OutDegree(id))
			ws.inUnits[i] = int32(e.g.InDegree(id))
		}
		in[w].Grow(m)
		inW[w].Grow(m)
		out[w].Grow(m)
		plan[w].Grow(workers)
	}

	// A replica of u is only ever discovered while scanning u's own
	// out-edges, so "does w hold u yet" is one stamp per worker, not a
	// workers×|V| table.
	heldFor := make([]int, workers)    // heldFor[w] == u+1: w holds a replica of the u being scanned
	heldSlot := make([]int32, workers) // ... in this slot
	nextSlot := make([]int32, workers) // the next replica slot w hands out
	walk := func() {
		clear(heldFor)
		for w := range nextSlot {
			nextSlot[w] = int32(layout.NumMasters(w))
		}
		for u := 0; u < n; u++ {
			wu, su := e.assign.Of[u], layout.Slot[u]
			wts := e.g.OutWeights(graph.ID(u))
			for i, v := range e.g.OutNeighbors(graph.ID(u)) {
				wv, sv, src := e.assign.Of[v], layout.Slot[v], su
				if wu != wv {
					// Spanning edge: the target worker gets a replica of u,
					// the in-edge points at the replica, and the replica
					// carries the activation edge to v.
					if heldFor[wv] != u+1 {
						heldFor[wv], heldSlot[wv] = u+1, nextSlot[wv]
						nextSlot[wv]++
						plan[wu].Add(wv, planEntry{master: su, replica: heldSlot[wv]})
					}
					src = heldSlot[wv]
				}
				// Either way v reads u through src, and src's row carries
				// the activation edge to v.
				in[wv].Add(int(sv), src)
				inW[wv].Add(int(sv), wts[i])
				out[wv].Add(int(src), sv)
			}
		}
	}
	walk()
	for w := range e.ws {
		in[w].Fill()
		inW[w].Fill()
		out[w].Fill()
		plan[w].Fill()
	}
	walk()
	e.plan = make([]graph.CSR[planEntry], workers)
	for w, ws := range e.ws {
		ws.in = in[w].Build()
		ws.inWeights = inW[w].Build()
		ws.localOut = out[w].Build()
		e.plan[w] = plan[w].Build()
		ws.view = make([]M, nextSlot[w]) // masters, then the replicas walk handed out
		e.ingress.Replicas += int64(ws.numReplicas())
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
