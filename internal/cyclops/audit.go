package cyclops

import (
	"fmt"

	"cyclops/internal/graph"
	"cyclops/internal/obs"
)

// The replica-invariant auditor (Config.Audit). Cyclops' communication
// claims follow from three structural invariants of the distributed
// immutable view (§3.4): sync traffic flows master→replica only, each
// replica receives at most one message per superstep, and after the SYN
// barrier every replica holds exactly its master's published value. The
// engine maintains these by construction; the auditor re-derives them from
// observed state each superstep so a regression (or a deliberate fault
// injection in tests) surfaces as a structured violation instead of a wrong
// result many supersteps later.

// auditMaxViolations caps how many violations one check collects per
// superstep, so a systemic fault doesn't flood the run log and its narration:
// the run fails on the first violation regardless.
const auditMaxViolations = 64

// auditDeliveries verifies invariants 2 and 3 on one worker's drained
// batches: no message targets a master slot, and no replica slot is hit
// twice. Called from the worker's own receive goroutine, before the batches
// are applied; it only reads them.
func (e *Engine[V, M]) auditDeliveries(w int, batches [][]syncMsg[M]) []obs.Violation {
	ws := e.ws[w]
	numMasters := ws.numMasters()
	var out []obs.Violation
	seen := make([]int, ws.numReplicas()) // deliveries per replica, in slot order
	for _, b := range batches {
		for _, m := range b {
			if int(m.Slot) >= numMasters {
				seen[int(m.Slot)-numMasters]++
			} else if len(out) < auditMaxViolations {
				out = append(out, obs.Violation{
					Engine: e.Trace().Engine,
					Step:   e.Superstep(),
					Worker: w,
					Vertex: int64(ws.masters[m.Slot]),
					Kind:   obs.ViolationReplicaToMaster,
					Detail: fmt.Sprintf("sync message targeted master slot %d", m.Slot),
				})
			}
		}
	}
	// Double deliveries come out in slot order: the violation list feeds
	// StepRecord.Violations and the audit error, which replay comparison
	// expects to be stable run to run.
	for r, n := range seen {
		if n > 1 && len(out) < auditMaxViolations {
			out = append(out, obs.Violation{
				Engine: e.Trace().Engine,
				Step:   e.Superstep(),
				Worker: w,
				Vertex: int64(e.replicaVertex(w, int32(numMasters+r))),
				Kind:   obs.ViolationDoubleDelivery,
				Detail: fmt.Sprintf("replica slot %d received %d sync messages", numMasters+r, n),
			})
		}
	}
	return out
}

// auditViewConsistency verifies invariant 1 after the receive phase: every
// replica's view value equals its master's. Exact equality is the right
// test — sync messages carry the master's value verbatim.
func (e *Engine[V, M]) auditViewConsistency() []obs.Violation {
	var out []obs.Violation
	for w, ws := range e.ws {
		for p, peer := range e.ws {
			for _, pe := range e.plan[w].Row(p) {
				if obs.ExactEqual(ws.view[pe.master], peer.view[pe.replica]) {
					continue
				}
				out = append(out, obs.Violation{
					Engine: e.Trace().Engine,
					Step:   e.Superstep(),
					Worker: p,
					Vertex: int64(ws.masters[pe.master]),
					Kind:   obs.ViolationReplicaDesync,
					Detail: fmt.Sprintf(
						"replica at worker %d slot %d diverges from master at worker %d slot %d",
						p, pe.replica, w, pe.master),
				})
				if len(out) >= auditMaxViolations {
					return out
				}
			}
		}
	}
	return out
}

// replicaVertex is the global id of the replica in slot s of worker w: the
// master some sender's plan refreshes it from.
func (e *Engine[V, M]) replicaVertex(w int, s int32) graph.ID {
	for p, ws := range e.ws {
		for _, pe := range e.plan[p].Row(w) {
			if pe.replica == s {
				return ws.masters[pe.master]
			}
		}
	}
	panic(fmt.Sprintf("cyclops: worker %d slot %d holds no replica", w, s))
}
