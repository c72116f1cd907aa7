package cyclops

// State is the checkpointable engine state. Per §3.6, Cyclops checkpoints
// are smaller than Hama's: replicas and messages are excluded — only master
// values, published views and activation flags are saved, and replicas are
// re-synchronised from their masters on recovery.
type State[V, M any] struct {
	Step   int
	Values []V    // master state, indexed by global vertex id
	View   []M    // published values, indexed by global vertex id
	Active []bool // activation flags, indexed by global vertex id
}

// Snapshot captures the engine's current state, as a checkpoint of it would.
func (e *Engine[V, M]) Snapshot() State[V, M] { return e.snapshot(e.Superstep()) }

// snapshot captures the state superstep step starts from (called between
// supersteps only).
func (e *Engine[V, M]) snapshot(step int) State[V, M] {
	n := e.g.NumVertices()
	s := State[V, M]{
		Step:   step,
		Values: make([]V, n),
		View:   make([]M, n),
		Active: make([]bool, n),
	}
	for _, ws := range e.ws {
		for i, id := range ws.masters {
			s.Values[id] = ws.values[i]
			s.View[id] = ws.view[i]
			s.Active[id] = ws.frontier.Has(i)
		}
	}
	return s
}

// Restore rewinds the engine to a checkpointed state and re-synchronises
// every replica from its master's published value (the recovery round that
// replaces Hama's message replay).
func (e *Engine[V, M]) Restore(s State[V, M]) error {
	if err := e.Rewind(s.Step, len(s.Values), len(s.View), len(s.Active)); err != nil {
		return err
	}
	e.load(s)
	return nil
}

// load hands every master s covers its value, view entry and activation flag,
// then re-syncs every replica from its master. A master beyond s (a vertex
// Evolve added) keeps its Init state.
func (e *Engine[V, M]) load(s State[V, M]) {
	for _, ws := range e.ws {
		for i, id := range ws.masters {
			if int(id) < len(s.Values) {
				ws.values[i], ws.view[i] = s.Values[id], s.View[id]
				ws.frontier.Set(i, s.Active[id])
			}
		}
	}
	e.refreshReplicas()
}

// refreshReplicas copies every master's view value to its replicas: a
// superstep's unidirectional sync, without activation.
func (e *Engine[V, M]) refreshReplicas() {
	for w, ws := range e.ws {
		for p, peer := range e.ws {
			for _, pe := range e.plan[w].Row(p) {
				peer.view[pe.replica] = ws.view[pe.master]
			}
		}
	}
}
