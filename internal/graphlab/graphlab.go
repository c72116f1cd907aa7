// Package graphlab accounts for the third prior system the paper analyses
// (§2.3): GraphLab's asynchronous model, where an update locks the vertex's
// whole scope (itself plus all neighbors) before reading and writing. Figure 4
// charges that with bidirectional traffic: every spanning edge needs *two*
// replicas (one per direction), a master's update is pushed to its replicas,
// and activations travel from replicas back to masters.
//
// Those costs are static per vertex, so this is not a fourth engine: New
// computes each vertex's message bill once from (graph, assignment) and Run
// drives a single-threaded FIFO worklist that reads neighbors in place, so
// the counts are a function of the input.
package graphlab

import (
	"errors"
	"fmt"

	"cyclops/internal/graph"
	"cyclops/internal/partition"
)

// Program is an asynchronous vertex program.
type Program[V any] interface {
	// Init returns the initial value and whether the vertex starts scheduled.
	Init(id graph.ID, g *graph.Graph) (V, bool)
	// Update reads the scope and returns the vertex's new value and whether
	// to reschedule its out-neighbors.
	Update(ctx *Scope[V]) (V, bool)
}

// Stats counts §2.3 communication: of a run, or — in the cost table — of one
// update of one vertex.
type Stats struct {
	Updates        int64
	SyncMessages   int64 // master → replica value push, one per distinct remote worker in the scope
	ActivationMsgs int64 // replica → master, one per remote out-edge when the update activates
	LockMessages   int64 // a request and a grant per remote scope member
}

// Messages is the total §2.3 message count.
func (s Stats) Messages() int64 { return s.SyncMessages + s.ActivationMsgs + s.LockMessages }

// Scope is the locked neighborhood handed to Update: vertex ID of G, and the
// live value array — every neighbor's *current* value, written in place by
// earlier updates, not a superstep snapshot: asynchronous semantics.
type Scope[V any] struct {
	ID     graph.ID
	G      *graph.Graph
	Values []V
}

// Engine is the worklist and the per-vertex cost table.
type Engine[V any] struct {
	prog     Program[V]
	scope    Scope[V] // the graph, the live values, the vertex in update
	bills    []Stats  // what one update of each vertex costs
	replicas int64
	queued   []bool
	work     []graph.ID
}

// New computes the cost table of g under assign (which must cover g) and
// seeds the worklist, in vertex-id order, with the vertices Init schedules. A
// vertex is replicated on every remote worker that holds a neighbor on *either*
// side of an edge — the duplicate replicas per spanning edge of §2.3.
func New[V any](g *graph.Graph, prog Program[V], assign *partition.Assignment) (*Engine[V], error) {
	if g == nil || prog == nil || assign == nil {
		return nil, errors.New("graphlab: graph, program and assignment are required")
	}
	n := g.NumVertices()
	e := &Engine[V]{prog: prog, scope: Scope[V]{G: g, Values: make([]V, n)},
		bills: make([]Stats, n), queued: make([]bool, n)}
	// member[u] == v+1 and worker[w] == v+1 mark what v's scope already counted.
	member, worker := make([]int, n), make([]int, assign.K)
	for v := 0; v < n; v++ {
		id, home, b := graph.ID(v), assign.Of[v], &e.bills[v]
		for dir, nbrs := range [2][]graph.ID{g.InNeighbors(id), g.OutNeighbors(id)} {
			for _, u := range nbrs {
				w := assign.Of[u]
				if w == home {
					continue
				}
				if dir == 1 {
					b.ActivationMsgs++
				}
				if member[u] != v+1 {
					member[u] = v + 1
					b.LockMessages += 2
				}
				if worker[w] != v+1 {
					worker[w] = v + 1
					b.SyncMessages++
				}
			}
		}
		e.replicas += b.SyncMessages // a replica per remote worker in the scope
		var active bool
		if e.scope.Values[v], active = prog.Init(id, g); active {
			e.schedule(id)
		}
	}
	return e, nil
}

func (e *Engine[V]) schedule(v graph.ID) {
	if !e.queued[v] {
		e.queued[v] = true
		e.work = append(e.work, v)
	}
}

// ReplicationFactor returns the duplicate-replica count of §2.3 per vertex.
func (e *Engine[V]) ReplicationFactor() float64 {
	return float64(e.replicas) / float64(max(len(e.bills), 1))
}

// Run updates scheduled vertices in FIFO order until none is scheduled,
// charging each update its vertex's bill. maxUpdates is the runaway guard: a
// program still scheduling after that many updates is an error.
func (e *Engine[V]) Run(maxUpdates int64) (Stats, error) {
	var st Stats
	for len(e.work) > 0 {
		batch := e.work
		e.work = nil
		for _, v := range batch {
			if st.Updates == maxUpdates {
				return st, fmt.Errorf("graphlab: update budget %d exhausted (non-convergent program?)", maxUpdates)
			}
			var activate bool
			e.scope.ID, e.queued[v] = v, false
			e.scope.Values[v], activate = e.prog.Update(&e.scope)
			b := e.bills[v]
			st.Updates++
			st.LockMessages += b.LockMessages
			st.SyncMessages += b.SyncMessages
			if !activate {
				continue
			}
			st.ActivationMsgs += b.ActivationMsgs
			for _, u := range e.scope.G.OutNeighbors(v) {
				if u != v {
					e.schedule(u)
				}
			}
		}
	}
	return st, nil
}
