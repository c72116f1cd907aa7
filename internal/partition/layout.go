package partition

import (
	"fmt"

	"cyclops/internal/graph"
)

// Layout is the dense slot assignment derived from an Assignment: the
// immutable vertex → (owner, master slot) mapping, built once at partition
// time. Engines index flat value arrays by Slot instead of probing
// map[graph.ID] in their inner loops; the per-partition master lists come
// out as one flat CSR, matching the immutable-view storage discipline.
//
// Slots are assigned in ascending vertex id within each partition, so
// Masters(p) is sorted and Slot is reproducible for a given Assignment —
// another input the flight-recorder exact-match gate depends on.
type Layout struct {
	K int
	// Slot maps a vertex id to its master slot within its owner partition:
	// the index of the vertex in Masters(owner).
	Slot []int32
	// masters holds each partition's master vertex ids (ascending).
	masters graph.CSR[graph.ID]
}

// NewLayout builds the slot assignment for n vertices under a. It errors if
// the assignment does not cover exactly n vertices or names a partition out
// of range.
func NewLayout(a *Assignment, n int) (*Layout, error) {
	if len(a.Of) != n {
		return nil, fmt.Errorf("partition: layout: assignment covers %d of %d vertices", len(a.Of), n)
	}
	slot := make([]int32, n)
	start := make([]int64, a.K+1) // counted one place right, then prefix-summed
	for v, p := range a.Of {
		if p < 0 || p >= a.K {
			return nil, fmt.Errorf("partition: layout: vertex %d assigned to %d, K=%d", v, p, a.K)
		}
		slot[v] = int32(start[p+1])
		start[p+1]++
	}
	for p := 1; p <= a.K; p++ {
		start[p] += start[p-1]
	}
	ids := make([]graph.ID, n)
	for v, p := range a.Of {
		ids[start[p]+int64(slot[v])] = graph.ID(v)
	}
	return &Layout{K: a.K, Slot: slot, masters: graph.NewCSR(start, ids)}, nil
}

// Masters returns partition p's master vertex ids in ascending order. The
// slice aliases the layout's storage and must not be mutated.
func (l *Layout) Masters(p int) []graph.ID { return l.masters.Row(p) }

// NumMasters returns len(Masters(p)) without materializing the slice.
func (l *Layout) NumMasters(p int) int { return l.masters.RowLen(p) }
