package cyclops

import (
	"errors"
	"fmt"

	"cyclops/internal/graph"
)

// Topology mutation is the paper's first item of future work (§8: "Cyclops
// currently has no support for topology mutation of graph yet... We plan to
// add such support"). This file adds it in the epoch style of Kineograph
// (which §7 cites for exactly this): a mutation batch closes the current
// epoch, the distributed immutable view is rebuilt for the grown graph, and
// all master state carries over. Between epochs the view is immutable as
// ever, so programs keep their synchronous, deterministic semantics.

// Evolve returns a new engine over the graph grown by the added edges
// (including any new vertices the edges introduce). All existing vertices
// keep their current value, published view entry and activation flag; new
// vertices are initialised by the program. The endpoints of added edges are
// activated so new information starts flowing on the next Run.
//
// The old engine must not be running; it remains valid but frozen (its
// Run would continue the old topology). Removal is not supported — the
// epochs grow append-only, as in Kineograph.
func (e *Engine[V, M]) Evolve(added []graph.Edge) (*Engine[V, M], error) {
	if len(added) == 0 {
		return nil, errors.New("cyclops: Evolve needs at least one added edge")
	}

	// Build the grown graph: existing edges plus the batch.
	grown, err := graph.FromEdges(e.g.NumVertices(), append(e.g.Edges(), added...))
	if err != nil {
		return nil, fmt.Errorf("cyclops: evolve: %w", err)
	}

	// Reuse the old configuration (partitioner included) for the new epoch.
	// The checkpoint directory and hooks carry over untouched; the new
	// epoch's baseline save retires the old epoch's later checkpoints.
	next, err := New[V, M](grown, e.prog, e.cfg)
	if err != nil {
		return nil, fmt.Errorf("cyclops: evolve: %w", err)
	}
	// Each epoch gets a fresh superstep budget and trace (epochs are
	// separate computations, as in Kineograph).

	// Transfer master state (values, published views, activation) and carry
	// the views over to the replicas, as a checkpoint restore does.
	next.load(e.Snapshot())

	// Activate the endpoints of the new edges: the targets see new
	// in-neighbors, and the sources must publish so brand-new replicas of
	// theirs hold fresh values (Init-seeded replica views of *old* vertices
	// would otherwise be stale if the carried-over view differs — the loop
	// above already fixed those; activation makes the information flow).
	for _, edge := range added {
		next.activateMaster(edge.Src)
		next.activateMaster(edge.Dst)
	}
	return next, nil
}

// activateMaster sets the activation flag of id's master slot.
func (e *Engine[V, M]) activateMaster(id graph.ID) {
	e.ws[e.assign.Of[id]].frontier.Set(int(e.layout.Slot[id]), true)
}
