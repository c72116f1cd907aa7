package cyclops

import (
	"cyclops/internal/aggregate"
	"cyclops/internal/graph"
)

// Context is the per-vertex view handed to Compute. It grants read-only
// access to the in-neighbors' published values (the distributed immutable
// view) and write access to the master's own state. A Context is only valid
// during the Compute call it is passed to.
type Context[V, M any] struct {
	e    *Engine[V, M]
	ws   *workerState[V, M]
	slot int32

	// inRow/inWRow cache the vertex's CSR adjacency rows (set with slot by
	// the compute loop), so the per-edge accessors are a single indexed load.
	inRow  []int32
	inWRow []float64

	published   bool
	pubVal      M
	pubActivate bool

	// The owning thread's frontier stripe (superstep.StripeMasks), and its
	// aggregates and compute counters this superstep.
	stripe                     []uint64
	local                      aggregate.Partial
	units, computed, activated int64
}

// setSlot points the context at a master slot and refreshes the cached
// adjacency rows.
func (c *Context[V, M]) setSlot(s int) {
	c.slot = int32(s)
	c.inRow = c.ws.in.Row(s)
	c.inWRow = c.ws.inWeights.Row(s)
}

// Vertex returns the current vertex id.
func (c *Context[V, M]) Vertex() graph.ID { return c.ws.masters[c.slot] }

// Superstep returns the current superstep index.
func (c *Context[V, M]) Superstep() int { return c.e.Superstep() }

// NumVertices returns the graph's vertex count.
func (c *Context[V, M]) NumVertices() int { return c.e.g.NumVertices() }

// Value returns the master's private state.
func (c *Context[V, M]) Value() V { return c.ws.values[c.slot] }

// SetValue updates the master's private state. This does not touch the view
// — neighbors only see what Publish publishes.
func (c *Context[V, M]) SetValue(v V) { c.ws.values[c.slot] = v }

// Message returns the vertex's own currently published value (what its
// neighbors read this superstep).
func (c *Context[V, M]) Message() M { return c.ws.view[c.slot] }

// InDegree returns the number of in-neighbors.
func (c *Context[V, M]) InDegree() int { return len(c.inRow) }

// NeighborMessage returns the i-th in-neighbor's published value, read
// through shared memory from the immutable view of the previous superstep —
// the paper's edges.next().vertex.getMessage() (Figure 5). It is valid even
// if the neighbor converged and is inactive, which is what makes dynamic
// computation work (§3.3).
func (c *Context[V, M]) NeighborMessage(i int) M {
	return c.ws.view[c.inRow[i]]
}

// InWeight returns the weight of the i-th in-edge.
func (c *Context[V, M]) InWeight(i int) float64 { return c.inWRow[i] }

// OutDegree returns the vertex's global out-degree.
func (c *Context[V, M]) OutDegree() int { return int(c.ws.outDeg[c.slot]) }

// Publish sets the vertex's published value, visible to all neighbors next
// superstep. If activate is true, all out-neighbors are activated — locally
// by a bit in the worker's frontier, remotely by the replica that receives the sync
// message (distributed activation, §3.4). The paper's
// activateNeighbors(value) is Publish(value, true).
//
// At most one sync message per replica results, whatever Compute does: a
// later Publish in the same Compute overwrites an earlier one, and
// activation requests are OR-ed.
func (c *Context[V, M]) Publish(m M, activate bool) {
	c.published = true
	c.pubVal = m
	c.pubActivate = c.pubActivate || activate
}

// Aggregate contributes v to the named aggregator (visible next superstep).
func (c *Context[V, M]) Aggregate(name string, v float64) {
	c.e.agg.Combine(&c.local, name, v)
}

// AggregateValue reads the previous superstep's folded aggregate.
func (c *Context[V, M]) AggregateValue(name string) (float64, bool) {
	return c.e.agg.Value(name)
}
