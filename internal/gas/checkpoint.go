package gas

// State is the checkpointable engine state. Like Cyclops (§3.6), the
// vertex-cut engine checkpoints only master values and activation flags:
// mirrors are caches and are rebuilt from their masters on recovery, and at a
// superstep barrier no messages are in flight.
type State[V any] struct {
	Step   int
	Values []V    // master values, indexed by global vertex id
	Active []bool // master activation flags, indexed by global vertex id
}

// snapshot captures the state superstep step starts from (called between
// supersteps only).
func (e *Engine[V, G]) snapshot(step int) State[V] {
	n := e.g.NumVertices()
	s := State[V]{
		Step:   step,
		Values: make([]V, n),
		Active: make([]bool, n),
	}
	for _, ws := range e.ws {
		for i := range ws.verts {
			lv := &ws.verts[i]
			if lv.master {
				s.Values[lv.id] = ws.vals[i]
				s.Active[lv.id] = ws.frontier.Has(i)
			}
		}
	}
	return s
}

// Restore rewinds the engine to a checkpointed state and refreshes every
// copy's cached value from the checkpointed master value — the mirror rebuild
// that replaces message replay (the vertex-cut analogue of §3.6's replica
// re-synchronisation).
func (e *Engine[V, G]) Restore(s State[V]) error {
	if err := e.Rewind(s.Step, len(s.Values), len(s.Active)); err != nil {
		return err
	}
	for _, ws := range e.ws {
		for i := range ws.verts {
			lv := &ws.verts[i]
			// Every copy, master and mirror alike, resets to the master's
			// checkpointed value.
			ws.vals[i] = s.Values[lv.id]
			if lv.master {
				ws.frontier.Set(i, s.Active[lv.id])
			}
		}
	}
	return nil
}
