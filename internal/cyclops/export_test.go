package cyclops

import (
	"slices"

	"cyclops/internal/graph"
	"cyclops/internal/transport"
)

// ViewOf returns the published value of vertex id as stored at its master
// (what neighbors read next superstep).
func (e *Engine[V, M]) ViewOf(id graph.ID) M {
	return e.ws[e.assign.Of[id]].view[e.layout.Slot[id]]
}

// MasterWorker reports which worker owns vertex id.
func (e *Engine[V, M]) MasterWorker(id graph.ID) int { return e.assign.Of[id] }

// ReplicaWorkers reports the workers holding a replica of vertex id, in
// ascending order, as the send plan records them.
func (e *Engine[V, M]) ReplicaWorkers(id graph.ID) []int {
	var out []int
	for p := range e.ws {
		if slices.ContainsFunc(e.plan[e.assign.Of[id]].Row(p), func(pe planEntry) bool { return pe.master == e.layout.Slot[id] }) {
			out = append(out, p)
		}
	}
	return out
}

// replicaIDs lists the vertex of every replica slot of worker w, in slot
// order.
func (e *Engine[V, M]) replicaIDs(w int) []graph.ID {
	var ids []graph.ID
	for s := e.ws[w].numMasters(); s < len(e.ws[w].view); s++ {
		ids = append(ids, e.replicaVertex(w, int32(s)))
	}
	return ids
}

// Frame is one non-empty sync frame SND sent, as TapFrames reports it.
type Frame struct {
	Step, From, To int
	Vertices       []graph.ID // the replicas it refreshes, by global id, in frame order
	Activate       []bool
	PlanLen        int   // entries in the from→to send plan
	Wire           int64 // bytes booked for it on the from→to cell
}

// TapFrames hands fn every non-empty frame the engine sends from now on;
// call it before Run. fn runs on the sending workers' goroutines.
func (e *Engine[V, M]) TapFrames(fn func(Frame)) {
	e.tr = frameTap[V, M]{Interface: e.tr, e: e, fn: fn}
}

type frameTap[V, M any] struct {
	transport.Interface[syncMsg[M]]
	e  *Engine[V, M]
	fn func(Frame)
}

func (t frameTap[V, M]) Send(from, to int, batch []syncMsg[M]) {
	before := t.Matrix().Snapshot().Wire[from][to]
	t.Interface.Send(from, to, batch)
	if len(batch) == 0 {
		return
	}
	f := Frame{Step: t.e.step, From: from, To: to, PlanLen: t.e.plan[from].RowLen(to),
		Wire: t.Matrix().Snapshot().Wire[from][to] - before}
	for _, m := range batch {
		f.Vertices = append(f.Vertices, t.e.replicaVertex(to, m.Slot))
		f.Activate = append(f.Activate, m.Activate)
	}
	t.fn(f)
}
