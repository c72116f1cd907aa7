// Package gas implements the comparator the paper evaluates against in §6.12:
// a PowerGraph-like synchronous Gather-Apply-Scatter engine over a vertex-cut
// partition. Edges (not vertices) are assigned to workers; every vertex gets
// one master and a mirror on each other worker that holds one of its edges.
// Each superstep a master exchanges five messages with every mirror — gather
// request, gather partial, apply push, scatter request, and activation
// return (§2.3) — versus Cyclops' at most one. The engine reproduces that
// 5:1 traffic ratio with real counted messages, which is what Table 4 and
// Figure 4 compare.
package gas

import (
	"errors"
	"fmt"
	"math/bits"
	"time"
	"unsafe"

	"cyclops/internal/cluster"
	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/superstep"
	"cyclops/internal/transport"
)

// Program is a GAS vertex program.
type Program[V, G any] interface {
	// Init returns the initial value and activation of vertex id.
	Init(id graph.ID, g *graph.Graph) (V, bool)
	// Gather maps one in-edge (src → current vertex) to an accumulator
	// contribution. srcVal is the locally cached value of src.
	Gather(src graph.ID, srcVal V, weight float64) G
	// Sum combines two accumulator values (commutative and associative).
	Sum(a, b G) G
	// Apply computes the vertex's new value from the gathered accumulator.
	// hasAcc is false when the vertex has no in-edges anywhere. It returns
	// the new value and whether to activate out-neighbors in scatter.
	Apply(id graph.ID, old V, acc G, hasAcc bool, step int) (V, bool)
}

// EdgePartitioner assigns each edge to a worker (a vertex-cut).
type EdgePartitioner interface {
	Name() string
	// PartitionEdges returns, for each edge of g (in g.Edges() order), the
	// worker it lands on.
	PartitionEdges(g *graph.Graph, k int) []int
}

// RandomVertexCut hashes each edge independently — PowerGraph's default
// random edge placement.
type RandomVertexCut struct{}

// Name implements EdgePartitioner.
func (RandomVertexCut) Name() string { return "random-cut" }

// PartitionEdges implements EdgePartitioner.
func (RandomVertexCut) PartitionEdges(g *graph.Graph, k int) []int {
	out := make([]int, g.NumEdges())
	i := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(graph.ID(v)) {
			h := (uint64(v)*0x9e3779b97f4a7c15 ^ uint64(u)*0xc2b2ae3d27d4eb4f) * 0xff51afd7ed558ccd
			out[i] = int(h % uint64(k))
			i++
		}
	}
	return out
}

// GreedyVertexCut is the coordinated-greedy heuristic PowerGraph uses for
// its "heuristic partition" rows in Table 4: place each edge on a worker
// that already hosts one of its endpoints, breaking ties by load.
type GreedyVertexCut struct{}

// Name implements EdgePartitioner.
func (GreedyVertexCut) Name() string { return "greedy-cut" }

// PartitionEdges implements EdgePartitioner.
func (GreedyVertexCut) PartitionEdges(g *graph.Graph, k int) []int {
	out := make([]int, g.NumEdges())
	load := make([]int64, k)
	// maxLoad caps per-worker edges at ~10% over the ideal share; without a
	// balance constraint the greedy rule degenerates (any connected graph
	// would collapse onto the first worker).
	maxLoad := int64(float64(g.NumEdges())/float64(k)*1.1) + 1
	// present[v] is a bitset of workers already hosting v (k ≤ 64 workers
	// fall in one word; larger k degrades to hashing the overflow).
	present := make([]uint64, g.NumVertices())
	pick := func(mask uint64) int {
		best, bestLoad := -1, int64(1<<62)
		for w := 0; w < k && w < 64; w++ {
			if mask&(1<<w) != 0 && load[w] < bestLoad && load[w] < maxLoad {
				best, bestLoad = w, load[w]
			}
		}
		return best
	}
	i := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(graph.ID(v)) {
			both := present[v] & present[u]
			either := present[v] | present[u]
			w := -1
			if both != 0 {
				w = pick(both)
			} else if either != 0 {
				w = pick(either)
			}
			if w < 0 {
				// Fresh endpoints: lightest worker.
				w = 0
				for c := 1; c < k; c++ {
					if load[c] < load[w] {
						w = c
					}
				}
			}
			out[i] = w
			load[w]++
			if w < 64 {
				present[v] |= 1 << w
				present[u] |= 1 << w
			}
			i++
		}
	}
	return out
}

// Config tunes an engine run.
type Config[V, G any] struct {
	Cluster       cluster.Config
	Partitioner   EdgePartitioner // default RandomVertexCut
	MaxSupersteps int
	// Residual maps a master's previous and newly applied values to a scalar
	// distance (|Δ| for scalar algorithms). When set, each superstep's
	// StepStats carries the quantiles of this distribution over all Apply
	// calls — the convergence telemetry behind Figure 3. Optional.
	Residual func(old, new V) float64
	// ValCodec/AccCodec encode vertex values and gather accumulators on the
	// wire: a gasMsg is framed as 1B kind + 4B slot + a kind-dependent
	// payload (apply pushes carry Val, gather partials carry Has+Acc, the
	// request/activation kinds are payload-free), and wire accounting
	// charges the exact frame bytes. Nil derives each from its type
	// (graph.CodecFor: float64, int64, []float64); New fails for any other
	// type until one is named here.
	ValCodec graph.Codec[V]
	AccCodec graph.Codec[G]
	// Network selects in-process queues (default) or the same binary frames
	// over loopback TCP.
	Network transport.Network
	OnStep  func(step int, e *Engine[V, G])
	// Hooks receives live instrumentation events (run/superstep/phase spans
	// and per-worker stats). nil disables observation.
	Hooks obs.Hooks
	// Audit verifies mirror coherence after every superstep: each mirror's
	// cached value must exactly equal its master's (the GAS analogue of
	// Cyclops' replica invariant — apply pushes are PowerGraph's only value
	// channel, so a divergent mirror means a lost or corrupted push). A
	// violation fails the run with *obs.AuditError. Off by default.
	Audit bool
	// CheckpointDir is where the engine checkpoints its masters (no mirrors,
	// no messages: the vertex-cut analogue of §3.6): a step-0 baseline as Run
	// starts, then every CheckpointEvery supersteps. A transient transport
	// fault rolls back to the newest checkpoint that loads, rebuilds every
	// mirror from its master and replays; with no directory it fails the run.
	CheckpointDir   string
	CheckpointEvery int // 0: the baseline only; > 0 needs a CheckpointDir
	// FaultPlan injects a deterministic fault schedule at the transport
	// boundary (testing/chaos only). Same plan ⇒ same faults.
	FaultPlan *fault.Plan
}

// message kinds: the five per-mirror messages of §2.3.
const (
	kindGatherReq = iota
	kindGatherPartial
	kindApplyPush
	kindScatterReq
	kindActivate
)

type gasMsg[V, G any] struct {
	Kind int8
	Slot int32 // local slot at the receiving worker
	Val  V     // apply push payload
	Acc  G     // gather partial payload
	Has  bool  // accumulator non-empty
}

// gasCodec frames a gasMsg as 1B kind + 4B slot + a kind-dependent payload,
// so the three payload-free request kinds cost 5 bytes instead of a full
// message estimate — the framing behind the Table 4 wire comparison.
type gasCodec[V, G any] struct {
	val        graph.Codec[V]
	acc        graph.Codec[G]
	valW, accW int // graph.FixedSize of val and acc
}

func newGasCodec[V, G any](val graph.Codec[V], acc graph.Codec[G]) gasCodec[V, G] {
	return gasCodec[V, G]{val: val, acc: acc, valW: graph.FixedSize(val), accW: graph.FixedSize(acc)}
}

func (c gasCodec[V, G]) EncodedSize(m gasMsg[V, G]) int { return c.BodySize(0, 0, []gasMsg[V, G]{m}) }

// BodySize prices a body in one pass over the kinds: a fixed value or
// accumulator width is added as is, a variable one asked of its codec.
func (c gasCodec[V, G]) BodySize(_, _ int, batch []gasMsg[V, G]) int {
	n := 5 * len(batch)
	for i := range batch {
		switch m := &batch[i]; m.Kind {
		case kindApplyPush:
			if n += c.valW; c.valW == 0 {
				n += c.val.EncodedSize(m.Val)
			}
		case kindGatherPartial:
			if n += 1 + c.accW; c.accW == 0 {
				n += c.acc.EncodedSize(m.Acc)
			}
		}
	}
	return n
}

func (c gasCodec[V, G]) Append(dst []byte, m gasMsg[V, G]) []byte {
	dst = append(dst, byte(m.Kind))
	dst = graph.AppendUint32(dst, uint32(m.Slot))
	switch m.Kind {
	case kindApplyPush:
		dst = c.val.Append(dst, m.Val)
	case kindGatherPartial:
		var has byte
		if m.Has {
			has = 1
		}
		dst = append(dst, has)
		dst = c.acc.Append(dst, m.Acc)
	}
	return dst
}

func (c gasCodec[V, G]) Decode(src []byte) (gasMsg[V, G], int, error) {
	var m gasMsg[V, G]
	if len(src) < 5 {
		return m, 0, graph.ErrShortBuffer
	}
	m.Kind = int8(src[0])
	slot, err := graph.Uint32At(src[1:])
	if err != nil {
		return m, 0, err
	}
	m.Slot = int32(slot)
	n := 5
	switch m.Kind {
	case kindApplyPush:
		val, vn, verr := c.val.Decode(src[5:])
		if verr != nil {
			return m, 0, verr
		}
		m.Val = val
		n += vn
	case kindGatherPartial:
		if len(src) < 6 {
			return m, 0, graph.ErrShortBuffer
		}
		m.Has = src[5] != 0
		acc, an, aerr := c.acc.Decode(src[6:])
		if aerr != nil {
			return m, 0, aerr
		}
		m.Acc = acc
		n += 1 + an
	}
	return m, n, nil
}

// localVertex is one worker's copy of a vertex. Its adjacency (in-edges,
// out-slots, mirror refs) lives in the workerState CSRs, indexed by slot.
type localVertex[V any] struct {
	id     graph.ID
	cache  V
	master bool
	// masterWorker/masterSlot route mirror→master messages.
	masterWorker int32
	masterSlot   int32
}

type mirrorRef struct {
	worker int32
	slot   int32
}

type gasEdge struct {
	srcSlot int32
	weight  float64
}

type workerState[V, G any] struct {
	verts []localVertex[V]

	// Immutable CSR adjacency, flattened once after edge placement: per slot,
	// the local in-edges, the local out-slots, and (masters only) the mirror
	// locations.
	inEdges  graph.CSR[gasEdge]
	outSlots graph.CSR[int32]
	mirrors  graph.CSR[mirrorRef]

	// frontier is the worker's activity over all its slots; only master slots
	// are ever set. Every round walks it instead of scanning the copies.
	frontier superstep.Frontier

	// Superstep scratch, dense by slot. An acc/scat entry is live iff its slot
	// is on the frontier: gather overwrites acc and apply overwrites scat for
	// every active master before anything reads them, so stale entries at idle
	// slots are never seen.
	accVal      []G
	accHas      []bool
	scat        []bool   // activate out-neighbors in scatter?
	queuedStamp []uint32 // == Engine.epoch: activation return already queued

	// outA/outB are the per-destination send batches, alternating by round
	// parity: a round's batches are still being read while the next round
	// refills its own set, but the round after that may safely reuse them.
	outA, outB [][]gasMsg[V, G]
}

// Engine executes a GAS Program over a vertex-cut partition. Its Shell holds
// the transport, trace and superstep counter.
type Engine[V, G any] struct {
	superstep.Shell[gasMsg[V, G]]
	g    *graph.Graph
	prog Program[V, G]
	cfg  Config[V, G]
	ws   []*workerState[V, G]

	mirrors     int64   // total mirror count (replication metric)
	mirrorsPerW []int64 // mirrors hosted per worker (skew reporting)
	// epoch stamps the workers' queuedStamp dedup set; it increments at the
	// top of every superstep (including replays after recovery), so stale
	// entries from earlier steps never read as live.
	epoch uint32
}

// New builds the engine: cuts edges across workers, creates masters and
// mirrors, and seeds every copy with the program's initial value.
func New[V, G any](g *graph.Graph, prog Program[V, G], cfg Config[V, G]) (*Engine[V, G], error) {
	if g == nil || prog == nil {
		return nil, errors.New("gas: graph and program are required")
	}
	cfg.Cluster = cfg.Cluster.Normalize()
	if cfg.Partitioner == nil {
		cfg.Partitioner = RandomVertexCut{}
	}
	k := cfg.Cluster.Workers()
	var err error
	if cfg.ValCodec == nil {
		if cfg.ValCodec, err = graph.CodecFor[V](); err != nil {
			return nil, fmt.Errorf("gas: value: %w", err)
		}
	}
	if cfg.AccCodec == nil {
		if cfg.AccCodec, err = graph.CodecFor[G](); err != nil {
			return nil, fmt.Errorf("gas: accumulator: %w", err)
		}
	}
	sh, err := superstep.Open(superstep.Options{
		Name: "gas", Engine: "powergraph", Graph: g, Workers: k,
		Network: cfg.Network, MaxSupersteps: cfg.MaxSupersteps, CheckpointDir: cfg.CheckpointDir,
		CheckpointEvery: cfg.CheckpointEvery, Hooks: cfg.Hooks, FaultPlan: cfg.FaultPlan,
	}, transport.GlobalQueue, newGasCodec(cfg.ValCodec, cfg.AccCodec))
	if err != nil {
		return nil, err
	}
	e := &Engine[V, G]{
		Shell:       sh,
		g:           g,
		prog:        prog,
		cfg:         cfg,
		ws:          make([]*workerState[V, G], k),
		mirrorsPerW: make([]int64, k),
	}
	n := g.NumVertices()
	// slotOf[w][id] is id's local slot on w, -1 when w has no copy. Only
	// construction reads it: the superstep addresses copies by slot.
	slotOf := make([][]int32, k)
	inEdges := make([]graph.CSRAssembler[gasEdge], k)
	outSlots := make([]graph.CSRAssembler[int32], k)
	mirrors := make([]graph.CSRAssembler[mirrorRef], k)
	for w := range e.ws {
		slotOf[w] = make([]int32, n)
		for i := range slotOf[w] {
			slotOf[w][i] = -1
		}
		e.ws[w] = &workerState[V, G]{}
	}
	ensure := func(w int, id graph.ID) int32 {
		if slotOf[w][id] < 0 {
			slotOf[w][id] = int32(len(e.ws[w].verts))
			e.ws[w].verts = append(e.ws[w].verts, localVertex[V]{id: id})
		}
		return slotOf[w][id]
	}

	// walk places every edge on its worker, creating local copies of both
	// endpoints in first-touch order, then elects each vertex's master (the
	// lowest worker id hosting it, as a stand-in for PowerGraph's arbitrary
	// election; an isolated vertex gets its only copy here) and wires its
	// mirrors. It runs twice: the assemblers count on the first run and
	// store on the second, so rows hold their items in placement order.
	assign := cfg.Partitioner.PartitionEdges(g, k)
	walk := func() {
		i := 0
		for v := 0; v < n; v++ {
			wts := g.OutWeights(graph.ID(v))
			for j, u := range g.OutNeighbors(graph.ID(v)) {
				w := assign[i]
				i++
				sv, su := ensure(w, graph.ID(v)), ensure(w, u)
				inEdges[w].Add(int(su), gasEdge{srcSlot: sv, weight: wts[j]})
				outSlots[w].Add(int(sv), su)
			}
		}
		for v := 0; v < n; v++ {
			masterW := 0
			for masterW < k && slotOf[masterW][v] < 0 {
				masterW++
			}
			if masterW == k {
				masterW = v % k
				ensure(masterW, graph.ID(v))
			}
			masterSlot := slotOf[masterW][v]
			for w := masterW; w < k; w++ {
				s := slotOf[w][v]
				if s < 0 {
					continue
				}
				c := &e.ws[w].verts[s]
				c.master, c.masterWorker, c.masterSlot = w == masterW, int32(masterW), masterSlot
				if !c.master {
					mirrors[masterW].Add(int(masterSlot), mirrorRef{worker: int32(w), slot: s})
				}
			}
		}
	}
	walk()
	for w, ws := range e.ws {
		inEdges[w].Grow(len(ws.verts))
		outSlots[w].Grow(len(ws.verts))
		mirrors[w].Grow(len(ws.verts))
		inEdges[w].Fill()
		outSlots[w].Fill()
		mirrors[w].Fill()
	}
	walk()

	// Flatten adjacency and allocate the superstep scratch once.
	for w, ws := range e.ws {
		ws.inEdges = inEdges[w].Build()
		ws.outSlots = outSlots[w].Build()
		ws.mirrors = mirrors[w].Build()
		nv := len(ws.verts)
		ws.accVal = make([]G, nv)
		ws.accHas = make([]bool, nv)
		ws.scat = make([]bool, nv)
		ws.queuedStamp = make([]uint32, nv)
		ws.frontier = superstep.NewFrontier(nv)
		ws.outA = make([][]gasMsg[V, G], k)
		ws.outB = make([][]gasMsg[V, G], k)
	}

	// Seed values on every copy; every copy that is not a master is a mirror.
	for w, ws := range e.ws {
		for s := range ws.verts {
			val, act := prog.Init(ws.verts[s].id, g)
			ws.verts[s].cache = val
			if ws.verts[s].master {
				ws.frontier.Set(s, act)
			} else {
				e.mirrors++
				e.mirrorsPerW[w]++
			}
		}
	}
	return e, nil
}

// Mirrors returns the total mirror count; Mirrors()/|V| is PowerGraph's
// replication factor (Table 4's "AVG #Replicas" column).
func (e *Engine[V, G]) Mirrors() int64 { return e.mirrors }

// ReplicationFactor returns mirrors per vertex.
func (e *Engine[V, G]) ReplicationFactor() float64 {
	if e.g.NumVertices() == 0 {
		return 0
	}
	return float64(e.mirrors) / float64(e.g.NumVertices())
}

// edgeBalance reports the per-worker edge-load imbalance (max/mean of local
// in-edge counts, ≥ 1). The vertex-cut balances edges, not vertices, so this —
// not a vertex count — is the quality figure RunInfo.PartitionBalance carries.
func (e *Engine[V, G]) edgeBalance() float64 {
	if len(e.ws) == 0 {
		return 1
	}
	var sum, max int64
	for _, ws := range e.ws {
		load := int64(ws.inEdges.NumItems())
		sum += load
		if load > max {
			max = load
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(e.ws))
	return float64(max) / mean
}

// Values assembles the global vertex values from the masters.
func (e *Engine[V, G]) Values() []V {
	out := make([]V, e.g.NumVertices())
	for _, ws := range e.ws {
		for s := range ws.verts {
			if ws.verts[s].master {
				out[ws.verts[s].id] = ws.verts[s].cache
			}
		}
	}
	return out
}

// Run executes synchronous GAS supersteps until no master is active or the
// superstep budget is exhausted. The loop, fan-out, recovery and hook emission
// are internal/superstep's; what follows is PowerGraph's five message rounds,
// all timed as one CMP phase, and the SYN bookkeeping.
func (e *Engine[V, G]) Run() (*metrics.Trace, error) {
	workers := e.cfg.Cluster.Workers()
	// masterOf maps a vertex to the worker holding its master: heat is
	// attributed there, since every round either runs at the master
	// (request/apply/scatter emission) or drains into it (partials,
	// activation returns) — one writer per vertex entry per round.
	var masterOf []int32
	if e.cfg.Hooks != nil {
		masterOf = make([]int32, e.g.NumVertices())
		for w, ws := range e.ws {
			for s := range ws.verts {
				if ws.verts[s].master {
					masterOf[ws.verts[s].id] = int32(w)
				}
			}
		}
	}
	// Every round drains what the same round sent: no lag.
	k := e.Kernel(0,
		func() obs.RunInfo {
			return obs.RunInfo{
				Replicas: e.mirrors,
				// Every mirror caches its master's value V, so the vertex-cut's
				// replicated-value memory is mirrors × sizeof(V) — the GAS side
				// of the Table 4/5 memory comparison.
				ReplicaValueBytes: e.mirrors * int64(unsafe.Sizeof(*new(V))),
				WorkerReplicas:    append([]int64(nil), e.mirrorsPerW...),
				// EdgeCut stays zero: under a vertex-cut every edge is
				// worker-local by construction; the partition quality lives in
				// the mirror counts and the edge balance instead.
				PartitionBalance: e.edgeBalance(),
			}
		},
		func(v int) int { return int(masterOf[v]) },
		superstep.Dir(e.snapshot, e.Restore))

	// Steady-state scratch, allocated once and reused every superstep: the
	// inbound buffer only holds the transport's freshly drained batch slices.
	inbound := make([][][]gasMsg[V, G], workers)
	var active int64

	// flush sends worker w's per-destination batches and closes its
	// communication round so the next drain can proceed. The five rounds
	// interleave send and compute, so the send share of each worker's busy
	// time is booked here and the kernel splits it out of the Compute span.
	sendBusy := k.Busy[metrics.Send]
	flush := func(w int, out [][]gasMsg[V, G]) int64 {
		t0 := time.Now()
		var sent int64
		for to, batch := range out {
			if len(batch) == 0 {
				continue
			}
			sent += int64(len(batch))
			e.Tr.Send(w, to, batch)
		}
		e.Tr.FinishRound(w)
		k.Sent[w] += sent
		if sendBusy != nil {
			sendBusy[w] += time.Since(t0)
		}
		return sent
	}
	// drain empties every worker's queue behind a barrier of its own, so a
	// fast worker's next-round sends can never race into a slow worker's
	// current-round processing.
	drain := func(w int) {
		inbound[w] = e.Tr.Drain(w) //lint:allow bufretain inbound is the round-scoped buffer, overwritten by the next drain before the batches are reused
		var n int64
		for _, b := range inbound[w] {
			n += int64(len(b))
		}
		k.Drained(w, n, int64(len(inbound[w])))
	}

	// Round 1 — gather requests: masters ask mirrors for partials.
	gatherReq := func(w int) {
		ws := e.ws[w]
		out := resetOut(ws.outA)
		for wi, word := range ws.frontier.Words() {
			for ; word != 0; word &= word - 1 {
				s := wi<<6 | bits.TrailingZeros64(word)
				mirs := ws.mirrors.Row(s)
				for _, m := range mirs {
					out[m.worker] = append(out[m.worker], gasMsg[V, G]{Kind: kindGatherReq, Slot: m.slot})
				}
				if k.HeatMsgs != nil {
					k.HeatMsgs[ws.verts[s].id] += int64(len(mirs))
				}
			}
		}
		flush(w, out)
	}

	// Round 2 — mirrors compute partial gathers and reply; masters start their
	// accumulators from their own local partials.
	gather := func(w int) {
		ws := e.ws[w]
		out := resetOut(ws.outB)
		var units int64
		gatherLocal := func(s int32) (G, bool) {
			var sum G
			has := false
			for _, edge := range ws.inEdges.Row(int(s)) {
				src := &ws.verts[edge.srcSlot]
				gv := e.prog.Gather(src.id, src.cache, edge.weight)
				units++
				if !has {
					sum, has = gv, true
				} else {
					sum = e.prog.Sum(sum, gv)
				}
			}
			return sum, has
		}
		for _, batch := range inbound[w] {
			for _, m := range batch {
				expectKind(m.Kind, kindGatherReq, "gather")
				lv := &ws.verts[m.Slot]
				sum, has := gatherLocal(m.Slot)
				out[lv.masterWorker] = append(out[lv.masterWorker],
					gasMsg[V, G]{Kind: kindGatherPartial, Slot: lv.masterSlot, Acc: sum, Has: has})
			}
		}
		for wi, word := range ws.frontier.Words() {
			for ; word != 0; word &= word - 1 {
				s := wi<<6 | bits.TrailingZeros64(word)
				ws.accVal[s], ws.accHas[s] = gatherLocal(int32(s))
			}
		}
		k.Units[w] += units
		flush(w, out)
	}

	// Round 3 — masters fold partials, apply, and push new values to mirrors.
	apply := func(w int) {
		ws := e.ws[w]
		for _, batch := range inbound[w] {
			for _, m := range batch {
				expectKind(m.Kind, kindGatherPartial, "apply")
				if k.HeatMsgs != nil {
					// Partials arrive only at the master's worker, so the
					// attribution stays single-writer.
					k.HeatMsgs[ws.verts[m.Slot].id]++
				}
				if !m.Has {
					continue
				}
				if !ws.accHas[m.Slot] {
					ws.accVal[m.Slot], ws.accHas[m.Slot] = m.Acc, true
				} else {
					ws.accVal[m.Slot] = e.prog.Sum(ws.accVal[m.Slot], m.Acc)
				}
			}
		}
		out := resetOut(ws.outA)
		// Ascending-slot sweep over the active masters — a fixed visit order, so
		// the per-step message series stay byte-identical.
		for wi, word := range ws.frontier.Words() {
			for ; word != 0; word &= word - 1 {
				s := wi<<6 | bits.TrailingZeros64(word)
				lv := &ws.verts[s]
				newVal, activate := e.prog.Apply(lv.id, lv.cache, ws.accVal[s], ws.accHas[s], e.Superstep())
				if e.cfg.Residual != nil {
					e.Residuals[w] = append(e.Residuals[w], e.cfg.Residual(lv.cache, newVal))
				}
				lv.cache = newVal
				ws.scat[s] = activate
				mirs := ws.mirrors.Row(s)
				for _, m := range mirs {
					out[m.worker] = append(out[m.worker], gasMsg[V, G]{Kind: kindApplyPush, Slot: m.slot, Val: newVal})
				}
				if k.HeatMsgs != nil {
					k.HeatMsgs[lv.id] += int64(len(mirs))
					// The vertex's gather scanned its full in-edge set, wherever
					// those edges live — its global in-degree.
					k.HeatUnits[lv.id] += int64(e.g.InDegree(lv.id))
				}
			}
		}
		// This round's out queues hold only apply pushes — the mirror value
		// maintenance that is GAS's replica-sync traffic.
		k.Sync[w] += flush(w, out)
	}

	// Round 4 — mirrors refresh caches; masters send scatter requests.
	scatterReq := func(w int) {
		ws := e.ws[w]
		for _, batch := range inbound[w] {
			for _, m := range batch {
				expectKind(m.Kind, kindApplyPush, "push")
				ws.verts[m.Slot].cache = m.Val
			}
		}
		out := resetOut(ws.outB)
		for wi, word := range ws.frontier.Words() {
			for ; word != 0; word &= word - 1 {
				s := wi<<6 | bits.TrailingZeros64(word)
				if !ws.scat[s] {
					continue
				}
				mirs := ws.mirrors.Row(s)
				for _, m := range mirs {
					out[m.worker] = append(out[m.worker], gasMsg[V, G]{Kind: kindScatterReq, Slot: m.slot})
				}
				if k.HeatMsgs != nil {
					k.HeatMsgs[ws.verts[s].id] += int64(len(mirs))
				}
			}
		}
		flush(w, out)
	}

	// Round 5 — scatter: mirrors (and masters locally) activate the local
	// copies' out-neighbors; remote activations return to the masters of the
	// activated vertices. Worker w's goroutine is its frontier's only writer
	// in this round and the next, so the plain Activate is enough.
	scatter := func(w int) {
		ws, epoch := e.ws[w], e.epoch
		out := resetOut(ws.outA)
		// PowerGraph batches activation returns: at most one activate message
		// per (activated vertex, worker) pair per superstep — the epoch stamp
		// is the dedup set.
		activateLocalOuts := func(s int32) {
			for _, dst := range ws.outSlots.Row(int(s)) {
				dlv := &ws.verts[dst]
				if dlv.master {
					ws.frontier.Activate(int(dst))
				} else if ws.queuedStamp[dst] != epoch {
					ws.queuedStamp[dst] = epoch
					out[dlv.masterWorker] = append(out[dlv.masterWorker],
						gasMsg[V, G]{Kind: kindActivate, Slot: dlv.masterSlot})
				}
			}
		}
		for _, batch := range inbound[w] {
			for _, m := range batch {
				expectKind(m.Kind, kindScatterReq, "scatter")
				activateLocalOuts(m.Slot)
			}
		}
		for wi, word := range ws.frontier.Words() {
			for ; word != 0; word &= word - 1 {
				s := wi<<6 | bits.TrailingZeros64(word)
				if ws.scat[s] {
					activateLocalOuts(int32(s))
				}
			}
		}
		flush(w, out)
	}

	// Final drain: deliver activation returns to masters.
	activation := func(w int) {
		ws := e.ws[w]
		for _, batch := range inbound[w] {
			for _, m := range batch {
				expectKind(m.Kind, kindActivate, "activation")
				if k.HeatMsgs != nil {
					// Activation returns land at the master's worker.
					k.HeatMsgs[ws.verts[m.Slot].id]++
				}
				ws.frontier.Activate(int(m.Slot))
			}
		}
	}
	rounds := []func(w int){gatherReq, drain, gather, drain, apply, drain,
		scatterReq, drain, scatter, drain, activation}

	model := metrics.DefaultCostModel()
	ps := superstep.PhaseSet{
		// gas decides termination before announcing a superstep: it counts
		// the active masters at the top and stops when there are none.
		Begin: func() bool {
			// Advancing the epoch here covers replays after recovery too.
			e.epoch++
			active = 0
			for w, ws := range e.ws {
				k.Active[w] = int64(ws.frontier.Count())
				active += k.Active[w]
			}
			return active > 0
		},
		Step: func() []obs.Violation {
			k.Phase(metrics.Compute, rounds...)
			if !e.cfg.Audit {
				return nil
			}
			// Round 4 refreshed every applied master's mirrors, and unapplied
			// masters did not change — so every mirror must now equal its
			// master exactly.
			return e.auditMirrors()
		},
		// SYN: advance the frontiers, account the superstep.
		Sync: func(stats *metrics.StepStats) {
			var units int64
			for w, ws := range e.ws {
				ws.frontier.Advance()
				stats.Messages += k.Sent[w]
				units += k.Units[w]
			}
			stats.Active = active
			// The "Max" columns hold per-worker means here, not maxima
			// (metrics.StepStats), and the model time is priced on them.
			stats.ComputeUnitsMax = units / int64(workers)
			stats.SendMax = stats.Messages / int64(workers)
			stats.RecvMax = stats.Messages / int64(workers)
			stats.ModelNanos = model.StepCost(
				stats.ComputeUnitsMax, stats.SendMax, stats.RecvMax,
				e.cfg.Cluster.Threads, 1, workers, true, model.FlatBarrier(workers))
		},
		OnStep: superstep.Bind(e.cfg.OnStep, e),
	}
	return e.Trace(), k.Run(ps)
}

// expectKind panics on a message of the wrong kind: the rounds are barriers,
// so a stray kind means the round protocol itself broke.
func expectKind(got, want int8, round string) {
	if got != want {
		panic(fmt.Sprintf("gas: unexpected kind %d in %s round", got, round))
	}
}

// resetOut truncates every per-destination batch to zero length, keeping the
// backing arrays for reuse. Reuse is safe because the batches a round sends
// are drained behind a barrier and read in the next round, and each buffer
// set is refilled two rounds later at the earliest (the outA/outB parity).
func resetOut[V, G any](out [][]gasMsg[V, G]) [][]gasMsg[V, G] {
	for to := range out {
		out[to] = out[to][:0]
	}
	return out
}
