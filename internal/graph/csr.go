package graph

import "fmt"

// CSR is an immutable, flat, offset-indexed row store — the partition-local
// counterpart of Graph's global adjacency arrays. Engines build one CSR per
// neighbor-shaped structure at partition time (in-neighbor slots, local
// out-edges, replica placements) and then iterate Row slices in the
// superstep inner loops with zero per-vertex allocations and no map lookups.
//
// Rows preserve their builder's order exactly: Row(i) returns the items laid
// out for row i in the order they were placed, duplicates included. That
// property is what lets the flight-recorder gate prove the CSR migration
// changed nothing — neighbor iteration order equals the seed adjacency-list
// order, so message order, and therefore every exact-diffed counter, is
// byte-identical.
type CSR[T any] struct {
	offsets []int64 // len = rows+1, monotone, offsets[0] == 0
	items   []T     // len = offsets[rows]
}

// NewCSR returns the CSR whose row i is items[offsets[i]:offsets[i+1]]: rows
// built in order, offsets as Validate wants them.
func NewCSR[T any](offsets []int64, items []T) CSR[T] { return CSR[T]{offsets, items} }

// NumRows returns the number of rows.
func (c *CSR[T]) NumRows() int { return len(c.offsets) - 1 }

// NumItems returns the total number of items across all rows.
func (c *CSR[T]) NumItems() int { return len(c.items) }

// Row returns row i as a slice of the flat item array. The slice aliases
// the CSR's storage and must not be mutated or retained past the CSR's
// lifetime.
func (c *CSR[T]) Row(i int) []T {
	return c.items[c.offsets[i]:c.offsets[i+1]]
}

// Arrays returns the offsets and the flat item array, for a loop that slices
// rows itself. Both alias the CSR's storage and must not be mutated.
func (c *CSR[T]) Arrays() (offsets []int64, items []T) { return c.offsets, c.items }

// RowLen returns len(Row(i)) without materializing the slice header.
func (c *CSR[T]) RowLen(i int) int {
	return int(c.offsets[i+1] - c.offsets[i])
}

// Validate checks the structural invariants: offsets present, monotone,
// anchored at zero, and spanning exactly the item array.
func (c *CSR[T]) Validate() error {
	if len(c.offsets) == 0 {
		return fmt.Errorf("graph: CSR: empty offsets (zero-row CSR still has offsets=[0])")
	}
	if c.offsets[0] != 0 {
		return fmt.Errorf("graph: CSR: offsets[0] = %d, want 0", c.offsets[0])
	}
	for i := 1; i < len(c.offsets); i++ {
		if c.offsets[i] < c.offsets[i-1] {
			return fmt.Errorf("graph: CSR: offsets not monotone at row %d: %d < %d",
				i-1, c.offsets[i], c.offsets[i-1])
		}
	}
	if got := c.offsets[len(c.offsets)-1]; got != int64(len(c.items)) {
		return fmt.Errorf("graph: CSR: offsets end at %d, want %d items", got, len(c.items))
	}
	return nil
}
