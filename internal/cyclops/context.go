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

	// The worker's flat arrays and |V|, bound at the start of every stripe
	// call (bind), so no Restore, recovery or Evolve can leave them stale and
	// every accessor is one indexed load off the context; [lo, hi) is the
	// current master's in-row in inSrc and inW (setSlot).
	view   []M
	values []V
	outDeg []int32
	inOff  []int64
	inSrc  []int32
	inW    []float64
	lo, hi int64
	n      int

	published   bool
	pubVal      M
	pubActivate bool

	// The owning thread's frontier stripe (superstep.StripeMasks), and its
	// aggregates and compute counters this superstep.
	stripe                     []uint64
	local                      aggregate.Partial
	units, computed, activated int64
}

// bind loads the worker's arrays into the context.
func (c *Context[V, M]) bind() {
	ws := c.ws
	c.view, c.values, c.outDeg = ws.view, ws.values, ws.outDeg
	c.inOff, c.inSrc = ws.in.Arrays()
	_, c.inW = ws.inWeights.Arrays()
	c.n = c.e.g.NumVertices()
}

// setSlot points the context at a master slot and its in-row's offsets.
// Two words, not two slice headers: In slices the row when a program asks.
func (c *Context[V, M]) setSlot(s int) {
	c.slot = int32(s)
	c.lo, c.hi = c.inOff[s], c.inOff[s+1]
}

// Vertex returns the current vertex id.
func (c *Context[V, M]) Vertex() graph.ID { return c.ws.masters[c.slot] }

// Superstep returns the current superstep index.
func (c *Context[V, M]) Superstep() int { return c.e.Superstep() }

// NumVertices returns the graph's vertex count.
func (c *Context[V, M]) NumVertices() int { return c.n }

// Value returns the master's private state.
func (c *Context[V, M]) Value() V { return c.values[c.slot] }

// SetValue updates the master's private state. This does not touch the view
// — neighbors only see what Publish publishes.
func (c *Context[V, M]) SetValue(v V) { c.values[c.slot] = v }

// Message returns the vertex's own currently published value (what its
// neighbors read this superstep).
func (c *Context[V, M]) Message() M { return c.view[c.slot] }

// In returns the in-row: in-neighbor i's published value is view[srcs[i]],
// read through shared memory from the immutable view of the previous
// superstep, and its in-edge weighs weights[i] — the paper's
// edges.next().vertex.getMessage() (Figure 5). A neighbor's value is
// readable even if it converged and is inactive, which is what makes dynamic
// computation work (§3.3). weights has len(srcs) elements; none of the three
// slices may be written.
func (c *Context[V, M]) In() (view []M, srcs []int32, weights []float64) {
	srcs = c.inSrc[c.lo:c.hi]
	return c.view, srcs, c.inW[c.lo:][:len(srcs)]
}

// OutDegree returns the vertex's global out-degree.
func (c *Context[V, M]) OutDegree() int { return int(c.outDeg[c.slot]) }

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
