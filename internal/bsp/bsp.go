// Package bsp implements the baseline the paper builds on and compares
// against: a Hama-like Pregel clone. Vertices interact by pure message
// passing; every superstep runs four sequential phases — message parsing
// (PRS), vertex computation (CMP), message sending (SND) and the global
// barrier (SYN) — with messages buffered in a locked global in-queue per
// worker (§2.1, §4.1). The deficiencies §2.2 documents are reproduced
// faithfully: pull-mode programs must keep all vertices alive to resend
// values, converged vertices keep computing and sending redundant messages,
// and termination relies on a coarse global aggregate.
package bsp

import (
	"errors"
	"fmt"

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

// Program is a Pregel vertex program. Compute is called once per superstep
// for every active vertex with the messages sent to it in the previous
// superstep.
type Program[V, M any] interface {
	// Init returns the initial value of vertex id. All vertices start
	// active, as in Pregel.
	Init(id graph.ID, g *graph.Graph) V
	// Compute inspects and updates the current vertex through ctx.
	Compute(ctx *Context[V, M], msgs []M)
}

// Config tunes an engine run.
type Config[V, M any] struct {
	// Cluster is the simulated topology; the BSP engine uses one thread per
	// worker (Hama predates hierarchical workers).
	Cluster cluster.Config
	// Partitioner assigns vertices to workers (default: hash, as in Hama).
	Partitioner partition.Partitioner
	// MaxSupersteps bounds the run (default 100).
	MaxSupersteps int
	// Halt decides termination at each barrier in addition to the natural
	// "no active vertices and no messages in flight" stop.
	Halt aggregate.HaltFunc
	// Combiner merges two messages bound for the same vertex (must be
	// commutative and associative, §2.2.2). Optional.
	Combiner func(a, b M) M
	// Equal detects unchanged values for redundant-message accounting
	// (Figure 3(2)). Optional; without it every message counts as useful.
	Equal func(a, b V) bool
	// Residual maps a vertex's previous and new values to a scalar distance
	// (|Δ| for scalar algorithms). When set, each superstep's StepStats
	// carries the quantiles of this distribution over all SetValue calls —
	// the convergence telemetry behind Figure 3. Optional.
	Residual func(old, new V) float64
	// MsgCodec encodes a message on the wire: the TCP transport frames
	// envelopes with it (arena-encoded, zero allocations per message) and
	// the in-process transport charges its exact encoded sizes to the wire
	// books, the run's one byte count. Nil derives it from M
	// (graph.CodecFor: float64, int64, []float64); New fails for any other
	// message type until one is named here.
	MsgCodec graph.Codec[M]
	// PerSenderQueues replaces Hama's locked global in-queue with Cyclops'
	// contention-free per-sender slots. It is an ablation knob (experiment
	// "ablation.queue"), not something Hama offers.
	PerSenderQueues bool
	// Network selects in-process queues (default) or the same binary frames
	// over real loopback TCP sockets. Checkpointing and Restore work on both.
	Network transport.Network
	// OnStep is called after each barrier with the engine (values are
	// consistent then); used by the harness for L1-norm tracking.
	OnStep func(step int, e *Engine[V, M])
	// CheckpointDir is where the engine checkpoints values, halted flags and
	// pending messages (§3.6: Hama must persist messages): a step-0 baseline
	// as Run starts, then every CheckpointEvery supersteps. A transient
	// transport fault rolls back to the newest checkpoint that loads and
	// replays; with no directory it fails the run.
	CheckpointDir   string
	CheckpointEvery int // 0: the baseline only; > 0 needs a CheckpointDir
	// Hooks receives live instrumentation events (run/superstep/phase spans
	// and per-worker stats). nil disables observation; the hot path then
	// pays only a nil-check per phase.
	Hooks obs.Hooks
	// Audit verifies message conservation each superstep: every envelope put
	// on the wire at SND must be delivered by the next PRS — BSP's analogue
	// of Cyclops' replica invariants (there are no replicas to check here).
	// A violation fails the run with *obs.AuditError. Off by default; when
	// off the loop pays one branch per phase.
	Audit bool
	// FaultPlan injects a deterministic fault schedule at the transport
	// boundary (testing/chaos only). Same plan ⇒ same faults.
	FaultPlan *fault.Plan
}

// envelope routes one message to a destination vertex.
type envelope[M any] struct {
	Dst graph.ID
	Msg M
}

// State is the checkpointable engine state (§3.6: superstep count, vertex
// values and in-flight messages; Hama must persist messages because they
// carry data).
type State[V, M any] struct {
	Step    int
	Values  []V
	Halted  []bool
	Pending []PendingBatch[M]
}

// PendingBatch is an undelivered message batch addressed to a worker.
type PendingBatch[M any] struct {
	To    int
	Batch []envelope[M]
}

// Engine executes a Program over a partitioned graph. Its Shell holds the
// transport, trace and superstep counter.
type Engine[V, M any] struct {
	superstep.Shell[envelope[M]]
	g      *graph.Graph
	prog   Program[V, M]
	cfg    Config[V, M]
	assign *partition.Assignment
	owned  [][]graph.ID // worker → owned vertex ids

	values []V
	halted []bool
	// inbox[v] is v's messages in drain order, carved by size from one array
	// of |E| by in-degree; a vertex sent more spills to its own by append.
	inbox [][]M

	// ctxs are the persistent per-worker compute contexts. Their out
	// buffers are arena-style: sized once by Run to the worker's out-edges
	// per destination, truncated to length zero at the top of each CMP
	// phase and refilled. Reuse is safe because the batches sent at SND of
	// step N are fully consumed by PRS of step N+1, which completes
	// (barrier) before CMP of step N+1 touches the buffers again.
	ctxs []*Context[V, M]
	// sized: Run has called size (no cap probe: in-degree 0 means cap 0).
	sized bool

	agg *aggregate.Registry
	// restored is what Restore queued for the next PRS, which stands in for
	// the last SND's batches until that PRS consumes it.
	restored []PendingBatch[M]

	// auditPrevSent is the wire-level envelope count of the previous SND
	// phase, compared against the next PRS delivery count when Audit is on.
	// -1 means "no previous superstep to check against" (fresh or restored
	// engine): the Combiner makes logical sent ≠ wire envelopes, so the count
	// must be taken at flush time, and a restore replaces in-flight state.
	auditPrevSent int64
}

// New builds an engine: partitions the graph, initialises vertex values and
// wires the transport with Hama's locked global in-queues.
func New[V, M any](g *graph.Graph, prog Program[V, M], cfg Config[V, M]) (*Engine[V, M], error) {
	if g == nil || prog == nil {
		return nil, errors.New("bsp: graph and program are required")
	}
	cfg.Cluster = cfg.Cluster.Normalize()
	if cfg.Partitioner == nil {
		cfg.Partitioner = partition.Hash{}
	}
	workers := cfg.Cluster.Workers()
	assign, err := cfg.Partitioner.Partition(g, workers)
	if err != nil {
		return nil, fmt.Errorf("bsp: partition: %w", err)
	}
	if cfg.MsgCodec == nil {
		if cfg.MsgCodec, err = graph.CodecFor[M](); err != nil {
			return nil, fmt.Errorf("bsp: %w", err)
		}
	}
	// The slot layout is built once at partition time: owned[w] aliases the
	// layout's flat CSR of master ids (ascending within each worker, same
	// order the append loop used to produce).
	layout, err := partition.NewLayout(assign, g.NumVertices())
	if err != nil {
		return nil, fmt.Errorf("bsp: layout: %w", err)
	}
	mode := transport.GlobalQueue
	if cfg.PerSenderQueues {
		mode = transport.PerSenderQueue
	}
	sh, err := superstep.Open(superstep.Options{
		Name: "bsp", Engine: "hama", Graph: g, Workers: workers,
		Network: cfg.Network, MaxSupersteps: cfg.MaxSupersteps, CheckpointDir: cfg.CheckpointDir,
		CheckpointEvery: cfg.CheckpointEvery, Hooks: cfg.Hooks, FaultPlan: cfg.FaultPlan,
	}, mode, envelopeCodec[M]{inner: cfg.MsgCodec})
	if err != nil {
		return nil, err
	}
	e := &Engine[V, M]{
		Shell:  sh,
		g:      g,
		prog:   prog,
		cfg:    cfg,
		assign: assign,
		owned:  make([][]graph.ID, workers),
		values: make([]V, g.NumVertices()),
		halted: make([]bool, g.NumVertices()),
		inbox:  make([][]M, g.NumVertices()),
		agg:    aggregate.NewRegistry(),

		auditPrevSent: -1,
	}
	for w := 0; w < workers; w++ {
		e.owned[w] = layout.Masters(w)
	}
	for v := 0; v < g.NumVertices(); v++ {
		e.values[v] = prog.Init(graph.ID(v), g)
	}
	e.ctxs = make([]*Context[V, M], workers)
	for w := range e.ctxs {
		ctx := &Context[V, M]{e: e, worker: w, out: make([][]envelope[M], workers)}
		if cfg.Combiner != nil {
			// Dense slot-addressed combiner state: per destination vertex,
			// the index of its coalesced envelope in out[owner], valid when
			// the stamp matches the current superstep's. Replaces a
			// map[graph.ID]int probe per message with two array reads.
			ctx.combineIdx = make([]int32, g.NumVertices())
			ctx.combineStamp = make([]uint32, g.NumVertices())
		}
		e.ctxs[w] = ctx
	}
	e.finishRound() // round 0: the first PRS drains it
	return e, nil
}

// finishRound ends the round on every worker. PRS drains the previous SND's
// round, so one stays open between supersteps: New's, each SND's or Restore's.
func (e *Engine[V, M]) finishRound() {
	for w := range e.ctxs {
		e.Tr.FinishRound(w)
	}
}

// envelopeCodec frames an envelope as a 4-byte destination id followed by
// the message's own encoding.
type envelopeCodec[M any] struct{ inner graph.Codec[M] }

func (c envelopeCodec[M]) EncodedSize(env envelope[M]) int {
	return 4 + c.inner.EncodedSize(env.Msg)
}

// FixedSize is 4 + the inner codec's width when that is fixed, else 0.
func (c envelopeCodec[M]) FixedSize() int {
	if n := graph.FixedSize(c.inner); n > 0 {
		return 4 + n
	}
	return 0
}

func (c envelopeCodec[M]) Append(dst []byte, env envelope[M]) []byte {
	dst = graph.AppendUint32(dst, uint32(env.Dst))
	return c.inner.Append(dst, env.Msg)
}

func (c envelopeCodec[M]) Decode(src []byte) (envelope[M], int, error) {
	var env envelope[M]
	d, err := graph.Uint32At(src)
	if err != nil {
		return env, 0, err
	}
	env.Dst = graph.ID(d)
	msg, n, err := c.inner.Decode(src[4:])
	if err != nil {
		return env, 0, err
	}
	env.Msg = msg
	return env, 4 + n, nil
}

// Values returns the vertex values indexed by vertex id. Only consistent
// between supersteps (i.e. inside OnStep or after Run).
func (e *Engine[V, M]) Values() []V { return e.values }

// Assignment exposes the partition for inspection.
func (e *Engine[V, M]) Assignment() *partition.Assignment { return e.assign }

// Aggregates exposes the previous superstep's folded aggregator values.
func (e *Engine[V, M]) Aggregates() *aggregate.Registry { return e.agg }

// Context is the per-vertex view handed to Compute. A Context is only valid
// during the Compute call it is passed to.
type Context[V, M any] struct {
	e       *Engine[V, M]
	worker  int
	vid     graph.ID
	changed bool
	sent    int64
	local   aggregate.Partial
	out     [][]envelope[M] // per destination worker, reused across supersteps
	// Combiner coalescing state (allocated once when cfg.Combiner is set):
	// combineIdx[dst] is the index of dst's envelope in out[owner(dst)],
	// valid only when combineStamp[dst] == stamp. stamp advances once per
	// superstep, so resetting the table costs nothing.
	combineIdx   []int32
	combineStamp []uint32
	stamp        uint32
}

// Vertex returns the current vertex id.
func (c *Context[V, M]) Vertex() graph.ID { return c.vid }

// Superstep returns the current superstep index.
func (c *Context[V, M]) Superstep() int { return c.e.Superstep() }

// NumVertices returns the graph's vertex count.
func (c *Context[V, M]) NumVertices() int { return c.e.g.NumVertices() }

// Value returns the current vertex's value.
func (c *Context[V, M]) Value() V { return c.e.values[c.vid] }

// SetValue updates the current vertex's value.
func (c *Context[V, M]) SetValue(v V) {
	if eq := c.e.cfg.Equal; eq == nil || !eq(c.e.values[c.vid], v) {
		c.changed = true
	}
	if r := c.e.cfg.Residual; r != nil {
		rows := c.e.Residuals
		rows[c.worker] = append(rows[c.worker], r(c.e.values[c.vid], v))
	}
	c.e.values[c.vid] = v
}

// OutDegree returns the current vertex's out-degree.
func (c *Context[V, M]) OutDegree() int { return c.e.g.OutDegree(c.vid) }

// OutNeighbors returns the current vertex's out-neighbors (read-only).
func (c *Context[V, M]) OutNeighbors() []graph.ID { return c.e.g.OutNeighbors(c.vid) }

// OutWeights returns the current vertex's out-edge weights (read-only).
func (c *Context[V, M]) OutWeights() []float64 { return c.e.g.OutWeights(c.vid) }

// SendTo queues a message for vertex dst, delivered next superstep.
func (c *Context[V, M]) SendTo(dst graph.ID, m M) {
	w := c.e.assign.Of[dst]
	c.sent++
	if c.e.cfg.Combiner != nil {
		if c.combineStamp[dst] == c.stamp {
			i := c.combineIdx[dst]
			c.out[w][i].Msg = c.e.cfg.Combiner(c.out[w][i].Msg, m)
			return
		}
		c.combineStamp[dst] = c.stamp
		c.combineIdx[dst] = int32(len(c.out[w]))
	}
	c.out[w] = append(c.out[w], envelope[M]{Dst: dst, Msg: m})
}

// SendToNeighbors queues m for every out-neighbor.
func (c *Context[V, M]) SendToNeighbors(m M) {
	ns := c.e.g.OutNeighbors(c.vid)
	if c.e.cfg.Combiner != nil {
		for _, u := range ns {
			c.SendTo(u, m)
		}
		return
	}
	of, out := c.e.assign.Of, c.out
	for _, u := range ns {
		out[of[u]] = append(out[of[u]], envelope[M]{Dst: u, Msg: m})
	}
	c.sent += int64(len(ns))
}

// VoteToHalt deactivates the vertex until a message re-activates it.
func (c *Context[V, M]) VoteToHalt() { c.e.halted[c.vid] = true }

// Aggregate contributes v to the named aggregator (visible next superstep).
func (c *Context[V, M]) Aggregate(name string, v float64) {
	c.e.agg.Combine(&c.local, name, v)
}

// AggregateValue reads the previous superstep's folded aggregate.
func (c *Context[V, M]) AggregateValue(name string) (float64, bool) {
	return c.e.agg.Value(name)
}

// Run executes supersteps until termination and returns the trace. A fresh
// engine starts at superstep 0; a Restored engine continues from its
// checkpointed superstep. The loop, fan-out, recovery and hook emission are
// internal/superstep's; what follows is Hama's four phase bodies, in Hama's
// order PRS → CMP → SND → SYN.
func (e *Engine[V, M]) Run() (*metrics.Trace, error) {
	workers := e.cfg.Cluster.Workers()
	if !e.sized {
		e.size()
	}
	k := e.Kernel(
		func() obs.RunInfo {
			return obs.RunInfo{
				// Replicas and ReplicaValueBytes stay zero: Hama has no
				// replicated view — it pays in message buffers instead, which
				// is exactly the memory trade Table 4/5 compares. Its heat
				// rows' replica-sync column stays zero for the same reason.
				EdgeCut:          int64(e.assign.EdgeCut(e.g)),
				PartitionBalance: e.assign.Balance(),
			}
		},
		func(v int) int { return e.assign.Of[v] },
		superstep.Dir(e.snapshot, e.Restore))
	// WorkerStats.Sent reports logical sends; the span stream weighs Send
	// spans by the post-combiner envelopes that actually hit the wire.
	k.Wire = make([]int64, workers)
	partials := make([]*aggregate.Partial, workers)
	for w := range partials {
		partials[w] = &e.ctxs[w].local
	}
	var sentTotal int64

	// PRS: drain the locked global in-queue and group messages per vertex
	// (CMP reactivates the recipients). One thread per worker, as in Hama.
	parse := func(w int) {
		for _, batch := range superstep.Drain(k, e.Tr, w) {
			for _, env := range batch {
				e.inbox[env.Dst] = append(e.inbox[env.Dst], env.Msg)
			}
		}
	}

	// CMP: run Compute on active vertices, one thread per worker.
	compute := func(w int) {
		// Reuse the persistent context: out buffers keep their capacity (PRS
		// consumed last step's batches before this barrier), the combiner
		// table resets by stamp advance, and the aggregate partial by Reset.
		ctx := e.ctxs[w]
		ctx.local.Reset()
		ctx.stamp++
		for to := range ctx.out {
			ctx.out[to] = ctx.out[to][:0]
		}
		var units, computed, changedW, sent, redundantW int64
		for _, v := range e.owned[w] {
			msgs := e.inbox[v]
			if len(msgs) > 0 {
				e.halted[v] = false
			} else if e.halted[v] {
				continue
			}
			ctx.vid = v
			ctx.changed = false
			before := ctx.sent
			e.prog.Compute(ctx, msgs)
			e.inbox[v] = msgs[:0]
			computed++
			vunits := int64(len(msgs)) + int64(e.g.OutDegree(v))
			units += vunits
			vsent := ctx.sent - before
			sent += vsent
			if k.HeatMsgs != nil {
				// Each vertex is computed only by its owner's goroutine.
				k.HeatMsgs[v] += vsent
				k.HeatUnits[v] += vunits
			}
			if ctx.changed {
				changedW++
			} else {
				redundantW += vsent
			}
		}
		k.Units[w], k.Active[w], k.Sent[w] = units, computed, sent
		k.Changed[w], k.Redundant[w] = changedW, redundantW
	}

	// SND: flush per-worker bundles through the transport. Senders from all
	// workers contend on each receiver's global queue lock.
	send := func(w int) {
		var wire int64
		for to, batch := range e.ctxs[w].out {
			wire += int64(len(batch))
			e.Tr.Send(w, to, batch)
		}
		e.Tr.FinishRound(w)
		k.Wire[w] = wire
	}

	model := metrics.DefaultCostModel()
	ps := superstep.PhaseSet{
		Step: func() []obs.Violation {
			k.Phase(metrics.Parse, parse)
			e.restored = nil
			violations := e.auditConservation(k.Recv)
			k.Phase(metrics.Compute, compute)
			k.Phase(metrics.Send, send)
			if e.cfg.Audit {
				e.auditPrevSent = 0
				for _, n := range k.Wire {
					e.auditPrevSent += n
				}
			}
			return violations
		},
		// SYN: barrier — fold aggregates and account the superstep.
		Sync: func(stats *metrics.StepStats) {
			e.agg.Fold(partials)
			for w := 0; w < workers; w++ {
				stats.ComputeUnitsMax = max(stats.ComputeUnitsMax, k.Units[w])
				stats.SendMax = max(stats.SendMax, k.Sent[w])
			}
			sentTotal = stats.Messages
			stats.RecvMax = e.nextRecvMax()
			stats.ModelNanos = model.StepCost(
				stats.ComputeUnitsMax, stats.SendMax, stats.RecvMax,
				1, 1, workers, !e.cfg.PerSenderQueues, model.FlatBarrier(workers))
		},
		OnStep: superstep.Bind(e.cfg.OnStep, e),
		// Nothing sent and nobody awake ends the run; any message in flight
		// reactivates at least one vertex.
		Pending: func() int64 { return e.countActive() + min(sentTotal, 1) },
		Halt: func(step int, pending int64) bool {
			return e.cfg.Halt != nil && e.cfg.Halt(step, e.agg.Value, pending)
		},
	}
	return e.Trace(), k.Run(ps)
}

// size gives each out buffer its worker's out-edge count to that destination
// and each inbox row its in-degree, exact for a program that messages each
// out-neighbour at most once per superstep; more sends grow them by append.
func (e *Engine[V, M]) size() {
	for w, ctx := range e.ctxs {
		bound := make([]int, len(ctx.out))
		for _, v := range e.owned[w] {
			for _, u := range e.g.OutNeighbors(v) {
				bound[e.assign.Of[u]]++
			}
		}
		for to, n := range bound {
			ctx.out[to] = make([]envelope[M], 0, n)
		}
	}
	flat := make([]M, e.g.NumEdges())
	for v := range e.inbox {
		d := e.g.InDegree(graph.ID(v))
		e.inbox[v], flat = flat[:0:d], flat[d:]
	}
	e.sized = true
}

// auditConservation checks (Audit on) that every envelope the previous SND
// put on the wire arrived at this PRS. The count is wire-level
// (post-Combiner), so it is exact.
func (e *Engine[V, M]) auditConservation(recv []int64) []obs.Violation {
	if !e.cfg.Audit || e.auditPrevSent < 0 {
		return nil
	}
	var delivered int64
	for _, r := range recv {
		delivered += r
	}
	if delivered == e.auditPrevSent {
		return nil
	}
	return []obs.Violation{{
		Engine: e.Trace().Engine,
		Step:   e.Superstep(),
		Worker: -1,
		Vertex: -1,
		Kind:   obs.ViolationMessageConservation,
		Detail: fmt.Sprintf(
			"superstep %d delivered %d envelopes but superstep %d put %d on the wire",
			e.Superstep(), delivered, e.Superstep()-1, e.auditPrevSent),
	}}
}

// nextRecvMax estimates the max messages any worker will receive next
// superstep from this superstep's outgoing bundles.
func (e *Engine[V, M]) nextRecvMax() int64 {
	var recvMax int64
	for to := range e.ctxs {
		var recv int64
		for _, ctx := range e.ctxs {
			recv += int64(len(ctx.out[to]))
		}
		recvMax = max(recvMax, recv)
	}
	return recvMax
}

func (e *Engine[V, M]) countActive() int64 {
	var n int64
	for _, h := range e.halted {
		if !h {
			n++
		}
	}
	return n
}

// snapshot captures the state superstep step starts from, including
// undelivered messages (called between supersteps only). Those are the
// batches the engine still holds — what Restore queued, else the last SND's
// out buffers — copied in the order Drain returns them (by receiver, then
// sender), so the transport and its books are untouched.
func (e *Engine[V, M]) snapshot(step int) State[V, M] {
	s := State[V, M]{
		Step:   step,
		Values: append([]V(nil), e.values...),
		Halted: append([]bool(nil), e.halted...),
	}
	pending := e.restored
	if pending == nil {
		pending = make([]PendingBatch[M], 0, len(e.ctxs)*len(e.ctxs)) // a batch per (sender, receiver) at most
		for to := range e.ctxs {
			for _, ctx := range e.ctxs {
				if batch := ctx.out[to]; len(batch) > 0 {
					pending = append(pending, PendingBatch[M]{To: to, Batch: batch})
				}
			}
		}
	}
	s.Pending = ownBatches(pending)
	return s
}

// ownBatches copies ps with its batches in one slab, each capped at its own
// end: a checkpoint allocates as often for W² batches as for one.
func ownBatches[M any](ps []PendingBatch[M]) []PendingBatch[M] {
	n := 0
	for _, p := range ps {
		n += len(p.Batch)
	}
	own, slab := make([]PendingBatch[M], len(ps)), make([]envelope[M], 0, n)
	for i, p := range ps {
		slab = append(slab, p.Batch...)
		own[i] = PendingBatch[M]{To: p.To, Batch: slab[len(slab)-len(p.Batch) : len(slab) : len(slab)]}
	}
	return own
}

// Restore rewinds the engine to a checkpointed state (§3.6 recovery). The
// engine must have been built over the same graph and configuration.
func (e *Engine[V, M]) Restore(s State[V, M]) error {
	for _, p := range s.Pending { // an empty batch is never sent
		for _, env := range p.Batch {
			if int(env.Dst) >= len(e.values) || e.assign.Of[env.Dst] != p.To {
				return errors.New("bsp: checkpoint holds a message its worker cannot deliver")
			}
		}
	}
	if err := e.Rewind(s.Step, len(s.Values), len(s.Halted)); err != nil {
		return err
	}
	// Rewind emptied the open round (the aborted superstep's SND, round 0 on
	// a fresh engine): stand the checkpoint's batches in its place.
	copy(e.values, s.Values)
	copy(e.halted, s.Halted)
	e.restored = ownBatches(s.Pending) // never nil: snapshot reads it until the next PRS
	for _, p := range e.restored {
		e.Tr.Send(p.To, p.To, p.Batch)
	}
	e.finishRound()
	for v := range e.inbox {
		e.inbox[v] = e.inbox[v][:0]
	}
	e.auditPrevSent = -1 // restored pending state has no audited SND phase
	return nil
}
