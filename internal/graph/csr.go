package graph

import "fmt"

// CSR is an immutable, flat, offset-indexed row store — the partition-local
// counterpart of Graph's global adjacency arrays. Engines build one CSR per
// neighbor-shaped structure at partition time (in-neighbor slots, local
// out-edges, replica placements) and then iterate Row slices in the
// superstep inner loops with zero per-vertex allocations and no map lookups.
//
// Rows preserve insertion order exactly: Row(i) returns the items appended
// to row i in the order they were appended, duplicates included. That
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

// CSRAssembler builds a CSR from one walk run twice: the caller Adds every
// (row, item) it has, calls Fill, and Adds the same sequence again. The first
// run only counts; Fill turns the counts into offsets and makes the one item
// allocation; the second run stores. Within a row, items land in the order
// they were added, duplicates included. Ingress runs once per engine, so
// walking the edges twice is cheaper than growing a slice per row, and
// because both runs are the same code they cannot disagree. The zero
// CSRAssembler is ready to use and has no rows.
type CSRAssembler[T any] struct {
	offsets []int64 // before Fill: offsets[r+1] = items added to row r; after: row starts
	cursor  []int64 // per row: where its next item lands; nil before Fill
	items   []T
}

// Grow makes the CSR at least rows long, before Fill; called ahead of the
// first Add it saves counting from regrowing the offsets row by row. Rows
// nothing is added to come out empty: zero-length rows, not errors.
func (a *CSRAssembler[T]) Grow(rows int) {
	if missing := rows + 1 - len(a.offsets); missing > 0 {
		a.offsets = append(a.offsets, make([]int64, missing)...)
	}
}

// Add appends item to row. Before Fill it only counts, growing the CSR to
// hold the row; after Fill it stores, and must replay an Add made before.
func (a *CSRAssembler[T]) Add(row int, item T) {
	if a.cursor == nil {
		a.Grow(row + 1)
		a.offsets[row+1]++
		return
	}
	a.items[a.cursor[row]] = item
	a.cursor[row]++
}

// Fill ends the counting run.
func (a *CSRAssembler[T]) Fill() {
	a.Grow(0)
	for r := 1; r < len(a.offsets); r++ {
		a.offsets[r] += a.offsets[r-1]
	}
	a.cursor = make([]int64, len(a.offsets)-1)
	copy(a.cursor, a.offsets)
	a.items = make([]T, a.offsets[len(a.offsets)-1])
}

// Build returns the assembled CSR. It panics unless every row received
// exactly the items counted for it: a walk that differs between its two
// runs is a bug in the caller, not an input condition.
func (a *CSRAssembler[T]) Build() CSR[T] {
	if a.cursor == nil {
		a.Fill()
	}
	for r, end := range a.cursor {
		if end != a.offsets[r+1] {
			panic(fmt.Sprintf("graph: CSRAssembler: row %d counted %d items, got %d",
				r, a.offsets[r+1]-a.offsets[r], end-a.offsets[r]))
		}
	}
	return CSR[T]{offsets: a.offsets, items: a.items}
}
