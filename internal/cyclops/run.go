package cyclops

import (
	"math/bits"
	"unsafe"

	"cyclops/internal/aggregate"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/superstep"
)

// pending holds a worker's publish results for the update phase. Compute
// must not mutate the view in place (other local vertices are still reading
// it), so publishes are staged here and applied after the compute barrier.
type pending[M any] struct {
	val   []M
	flags []uint8 // bit 0: publish (after SND's frontier pass: sync); bit 1: activate; bit 2: redundant
}

const (
	flagPublish   = 1
	flagActivate  = 2
	flagRedundant = 4
)

// Run executes supersteps until no vertex is active, the Halt function
// fires, or MaxSupersteps is reached. The loop, fan-out, recovery and hook
// emission are internal/superstep's; what follows is Cyclops' phase bodies in
// its own order CMP → SND → RECV (reported as PRS) → SYN.
func (e *Engine[V, M]) Run() (*metrics.Trace, error) {
	workers := e.cfg.Cluster.Workers()
	threads := e.cfg.Cluster.Normalize().Threads
	receivers := e.cfg.Cluster.Normalize().Receivers
	k := e.Kernel(
		func() obs.RunInfo {
			return obs.RunInfo{
				Replicas: e.ingress.Replicas,
				// The distributed immutable view caches one M per replica
				// slot, so the replicated values cost Replicas × sizeof(M) —
				// the deterministic replica side of the Table 4/5 memory trade.
				ReplicaValueBytes: e.ingress.Replicas * int64(unsafe.Sizeof(*new(M))),
				WorkerReplicas:    e.workerReplicas(),
				EdgeCut:           int64(e.assign.EdgeCut(e.g)),
				PartitionBalance:  e.assign.Balance(),
			}
		},
		func(v int) int { return e.assign.Of[v] },
		superstep.Dir(e.snapshot, e.Restore))

	// Steady-state scratch, allocated once and reused every superstep: the
	// publish staging, compute contexts (with their aggregator partials) and
	// per-thread counters below are either fully overwritten each step or
	// reset with [:0]/Reset. Nothing downstream retains them — the aggregate
	// registry folds partials into its own and SetResiduals reduces to
	// scalars — so the superstep loop allocates nothing for bookkeeping.
	pend := make([]pending[M], workers)
	ctxs := make([][]*Context[V, M], workers)
	var partials []*aggregate.Partial // every context's, in (worker, thread) order
	for w := 0; w < workers; w++ {
		pend[w] = pending[M]{
			val:   make([]M, e.ws[w].numMasters()),
			flags: make([]uint8, e.ws[w].numMasters()),
		}
		ctxs[w] = make([]*Context[V, M], threads)
		for t := 0; t < threads; t++ {
			ctxs[w][t] = &Context[V, M]{e: e, ws: e.ws[w], stripe: superstep.StripeMasks(t, threads)}
			partials = append(partials, &ctxs[w][t].local)
		}
	}
	// SND sends at most one message per plan entry: size each batch to its row.
	for w, ws := range e.ws {
		for to := range ws.out {
			if n := e.plan[w].RowLen(to); cap(ws.out[to]) < n {
				ws.out[to] = make([]syncMsg[M], 0, n)
			}
		}
	}
	inbound := make([][][]syncMsg[M], workers)
	auditPerW := make([][]obs.Violation, workers)
	activating := make([]int64, workers) // CMP's publishes with activation, per worker
	var nextActive int64
	var steady, fullLast bool

	// Each worker fans its CMP stripes out on a Team of T and its RECV
	// appliers on a Team of R, built once here.
	stripeTeams := make([]*superstep.Team, workers)
	recvTeams := make([]*superstep.Team, workers)
	for w := range workers {
		stripeTeams[w], recvTeams[w] = superstep.NewTeam(threads), superstep.NewTeam(receivers)
	}

	// CMP: active masters compute over the immutable view, striped across T
	// threads per worker. Thread t visits the frontier's slots ≡ t (mod T), so
	// every per-slot write below (pend, heat) has exactly one writer. Every
	// frontier walk in this file is a word loop over Words() (DESIGN.md §4.1).
	stripes := make([]func(t int), workers)
	for w := range stripes {
		ws := e.ws[w]
		stripes[w] = func(t int) {
			ctx := ctxs[w][t]
			ctx.bind()
			ctx.local.Reset()
			var units, computed, activated int64
			heat, vals, flags := k.HeatUnits, pend[w].val, pend[w].flags
			for wi, word := range ws.frontier.Words() {
				if threads > 1 {
					word &= ctx.stripe[wi%threads]
				}
				for ; word != 0; word &= word - 1 {
					s := wi<<6 | bits.TrailingZeros64(word)
					ctx.setSlot(s)
					ctx.published = false
					ctx.pubActivate = false
					e.prog.Compute(ctx)
					computed++
					u := ctx.hi - ctx.lo
					units += u
					if heat != nil {
						heat[ws.masters[s]] += u
					}
					if ctx.published {
						vals[s] = ctx.pubVal
						f := uint8(flagPublish)
						if ctx.pubActivate {
							f |= flagActivate
							activated++
						}
						flags[s] = f
					}
				}
			}
			ctx.units, ctx.computed, ctx.activated = units, computed, activated
		}
	}
	compute := func(w int) {
		stripeTeams[w].Run(nil, stripes[w])
		activating[w] = 0
		for t := 0; t < threads; t++ {
			k.Units[w] += ctxs[w][t].units
			k.Active[w] += ctxs[w][t].computed
			activating[w] += ctxs[w][t].activated
		}
	}

	// SND: apply publishes to the local view, activate local out-neighbors, and
	// send one sync message per replica of each changed/activating master
	// (§3.5). Only computed masters can have published, so CMP's worklist is
	// the frontier pass's, which marks the masters to sync; one pass per peer
	// over the send plan emits them. Worker w's send goroutine is the
	// frontier's only writer here, and private per-destination out-queues
	// avoid any shared-lock contention. A steady superstep activates exactly
	// the current set (DESIGN.md §4.3): one Repeat instead of the edge walks.
	send := func(w int) {
		ws := e.ws[w]
		var sent, changedW, redundantW int64
		heat, vals, flags := k.HeatMsgs, pend[w].val, pend[w].flags
		if steady {
			ws.frontier.Repeat()
		}
		for wi, word := range ws.frontier.Words() {
			for ; word != 0; word &= word - 1 {
				s := wi<<6 | bits.TrailingZeros64(word)
				f := flags[s]
				if f == 0 {
					continue
				}
				val := vals[s]
				activate := f&flagActivate != 0
				if e.cfg.Residual != nil {
					e.Residuals[w] = append(e.Residuals[w], e.cfg.Residual(ws.view[s], val))
				}
				if valueChanged := e.cfg.Equal == nil || !e.cfg.Equal(ws.view[s], val); valueChanged {
					ws.view[s] = val
					changedW++
				} else if !activate {
					// Republishing an identical value with no activation is the
					// redundant traffic BSP cannot avoid; Cyclops suppresses it
					// entirely (the plan pass counts what it would have cost).
					flags[s] = flagRedundant
					continue
				}
				if activate && !steady {
					ws.frontier.ActivateRow(ws.localOut.Row(s))
				}
			}
		}
		// Send the view value, not the raw publish: when Equal suppressed a
		// sub-epsilon change the master's view kept the old value, and
		// replicas must match it exactly (§3.4's consistency invariant,
		// checked by Audit). The batch buffers are reused ([:0]): last
		// superstep's were drained and applied before its barrier.
		for to, out := range ws.out {
			out = out[:0]
			for _, pe := range e.plan[w].Row(to) {
				if f := flags[pe.master]; f&flagPublish != 0 {
					out = append(out, syncMsg[M]{Slot: pe.replica, Val: ws.view[pe.master], Activate: f&flagActivate != 0})
					if heat != nil {
						heat[ws.masters[pe.master]]++
					}
				} else if f == flagRedundant {
					redundantW++
				}
			}
			ws.out[to] = out
			sent += int64(len(out))
			e.Tr.Send(w, to, out)
		}
		e.Tr.FinishRound(w)
		for wi, word := range ws.frontier.Words() {
			for ; word != 0; word &= word - 1 {
				flags[wi<<6|bits.TrailingZeros64(word)] = 0
			}
		}
		// Every Cyclops message is a replica sync (local edges read shared
		// memory; replicas exist only for spanning edges), so the heat rows'
		// sync column is the full send count.
		k.Sent[w], k.Sync[w] = sent, sent
		k.Changed[w], k.Redundant[w] = changedW, redundantW
	}

	// RECV: replica updates, parallel across R receivers per worker. Each
	// replica has exactly one writer per superstep, so updates are lock-free
	// and there is no parse phase (§4.1); the time is reported as PRS. Two
	// receivers may activate the same master, so activation waits for the
	// join and runs on the worker's own goroutine, the frontier's one writer.
	appliers := make([]func(r int), workers)
	for w := range appliers {
		ws := e.ws[w]
		appliers[w] = func(r int) {
			for bi := r; bi < len(inbound[w]); bi += receivers {
				for _, m := range inbound[w][bi] {
					ws.view[m.Slot] = m.Val
				}
			}
		}
	}
	recv := func(w int) {
		batches := superstep.Drain(k, e.Tr, w)
		if e.cfg.Audit {
			auditPerW[w] = e.auditDeliveries(w, batches)
		}
		inbound[w] = batches //lint:allow bufretain the receivers reading inbound[w] are joined by the Team's Run below, a full barrier before the next Drain
		recvTeams[w].Run(nil, appliers[w])
		if steady {
			return
		}
		ws := e.ws[w]
		for _, batch := range batches {
			for _, m := range batch {
				if m.Activate {
					ws.frontier.ActivateRow(ws.localOut.Row(int(m.Slot)))
				}
			}
		}
	}

	model := metrics.DefaultCostModel()
	ps := superstep.PhaseSet{
		Step: func() []obs.Violation {
			k.Phase(metrics.Compute, compute)
			// Steady: every computed master activated, now and last superstep,
			// and no frontier changed at the barrier in between — so this
			// superstep activates what the last one did, the current set.
			full, unchanged := true, true
			for w, ws := range e.ws {
				full = full && activating[w] == k.Active[w]
				unchanged = unchanged && ws.frontier.Unchanged()
			}
			steady, fullLast = full && fullLast && unchanged, full
			k.Phase(metrics.Send, send)
			k.Phase(metrics.Parse, recv)
			if !e.cfg.Audit {
				return nil
			}
			// With all replicas refreshed and the barrier passed, every
			// replica must now equal its master's published view value.
			var violations []obs.Violation
			for _, vs := range auditPerW {
				violations = append(violations, vs...)
			}
			return append(violations, e.auditViewConsistency()...)
		},
		// SYN: hierarchical or flat barrier — fold aggregates, advance the
		// frontiers, account the superstep.
		Sync: func(stats *metrics.StepStats) {
			e.agg.Fold(partials)

			nextActive = 0
			for w, ws := range e.ws {
				nextActive += int64(ws.frontier.Advance())
				stats.ComputeUnitsMax = max(stats.ComputeUnitsMax, k.Units[w])
				stats.SendMax = max(stats.SendMax, k.Sent[w])
				stats.RecvMax = max(stats.RecvMax, k.Recv[w])
			}
			barrier := model.FlatBarrier(workers)
			if e.Trace().Engine == "cyclopsmt" {
				barrier = model.HierarchicalBarrier(e.cfg.Cluster.Machines, threads)
			}
			stats.ModelNanos = model.StepCost(
				stats.ComputeUnitsMax, stats.SendMax, stats.RecvMax,
				threads, receivers, workers, false, barrier)
		},
		OnStep:  superstep.Bind(e.cfg.OnStep, e),
		Pending: func() int64 { return nextActive },
		Halt: func(step int, pending int64) bool {
			return e.cfg.Halt != nil && e.cfg.Halt(step, e.agg.Value, pending)
		},
	}
	return e.Trace(), k.Run(ps)
}
