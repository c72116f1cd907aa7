package bsp

import (
	"fmt"
	"unsafe"

	"cyclops/internal/graph"
)

// BatchGrowth returns an error naming the first SND batch whose capacity is
// not its out-edge bound, or nil. The bound is recounted here from the
// graph: worker w's out-edges whose head another worker to owns.
func (e *Engine[V, M]) BatchGrowth() error {
	for w, ctx := range e.ctxs {
		bound := make([]int, len(ctx.out))
		for _, v := range e.owned[w] {
			for _, u := range e.g.OutNeighbors(v) {
				bound[e.assign.Of[u]]++
			}
		}
		for to, out := range ctx.out {
			if cap(out) != bound[to] {
				return fmt.Errorf("worker %d → %d: batch capacity %d, out-edge bound %d", w, to, cap(out), bound[to])
			}
		}
	}
	return nil
}

// InboxSpill returns an error naming the first vertex whose inbox row is not
// its in-degree's stretch of one shared array, or nil: every row must hold
// its in-degree as capacity and start where the previous non-empty row's
// capacity ends.
func (e *Engine[V, M]) InboxSpill() error {
	var next unsafe.Pointer
	for v, row := range e.inbox {
		d := e.g.InDegree(graph.ID(v))
		if cap(row) != d {
			return fmt.Errorf("vertex %d: inbox capacity %d, in-degree %d", v, cap(row), d)
		}
		if d == 0 {
			continue
		}
		start := unsafe.Pointer(unsafe.SliceData(row))
		if next != nil && start != next {
			return fmt.Errorf("vertex %d: inbox row is not adjacent to the previous one", v)
		}
		next = unsafe.Add(start, uintptr(d)*unsafe.Sizeof(row[:1][0]))
	}
	return nil
}

// Snapshot captures the state the next superstep starts from, as a
// checkpoint of it would.
func (e *Engine[V, M]) Snapshot() State[V, M] { return e.snapshot(e.Superstep()) }
