package gas

import "fmt"

// FixedCut places edge i (in g.Edges() order) on worker of[i].
func FixedCut(of []int) EdgePartitioner { return fixedCut{of: of} }

// BatchGrowth returns an error naming the first send batch whose capacity is
// not its round bound, or nil. The bound is recounted here from the mirror
// rows: the (master, mirror) pairs between two workers in the busier
// direction.
func (e *Engine[V, G]) BatchGrowth() error {
	k := len(e.ws)
	pairs := make([][]int, k)
	for w, ws := range e.ws {
		pairs[w] = make([]int, k)
		for s := range ws.verts {
			for _, m := range ws.mirrors.Row(s) {
				pairs[w][m.worker]++
			}
		}
	}
	for w, ws := range e.ws {
		for to := range k {
			bound := max(pairs[w][to], pairs[to][w])
			if a, b := cap(ws.outA[to]), cap(ws.outB[to]); a != bound || b != bound {
				return fmt.Errorf("worker %d → %d: batch capacities %d and %d, round bound %d", w, to, a, b, bound)
			}
		}
	}
	return nil
}
