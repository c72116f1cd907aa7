package graph

import (
	"reflect"
	"testing"
)

// assemble drives a CSRAssembler the way ingress does: the same emission
// walk twice with one Fill between.
func assemble[T any](rows int, walk func(emit func(row int, item T))) CSR[T] {
	var a CSRAssembler[T]
	a.Grow(rows)
	walk(a.Add)
	a.Fill()
	walk(a.Add)
	return a.Build()
}

// TestCSREmptyRows covers the empty-partition shape: a CSR whose rows were
// never counted must validate and iterate as zero-length rows.
func TestCSREmptyRows(t *testing.T) {
	c := assemble(4, func(emit func(int, int32)) { emit(2, 7) })
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumRows() != 4 || c.NumItems() != 1 {
		t.Fatalf("rows=%d items=%d, want 4/1", c.NumRows(), c.NumItems())
	}
	for _, empty := range []int{0, 1, 3} {
		if got := c.Row(empty); len(got) != 0 {
			t.Fatalf("row %d = %v, want empty", empty, got)
		}
		if c.RowLen(empty) != 0 {
			t.Fatalf("RowLen(%d) = %d, want 0", empty, c.RowLen(empty))
		}
	}
	if got := c.Row(2); len(got) != 1 || got[0] != 7 {
		t.Fatalf("row 2 = %v, want [7]", got)
	}

	// A fully empty CSR (all rows empty — the empty-partition case) is
	// valid too.
	empty := assemble(3, func(func(int, int32)) {})
	if err := empty.Validate(); err != nil {
		t.Fatal(err)
	}
	if empty.NumRows() != 3 || empty.NumItems() != 0 {
		t.Fatalf("empty CSR: rows=%d items=%d", empty.NumRows(), empty.NumItems())
	}

	// Zero rows entirely.
	none := new(CSRAssembler[int32]).Build()
	if err := none.Validate(); err != nil {
		t.Fatal(err)
	}
	if none.NumRows() != 0 {
		t.Fatalf("zero-row CSR: rows=%d", none.NumRows())
	}
}

// TestCSRIsolatedVertices builds a CSR over a graph with isolated vertices
// (no in- or out-edges): their rows must exist and be empty, and must not
// shift neighboring rows' offsets.
func TestCSRIsolatedVertices(t *testing.T) {
	gb := NewBuilder(5)
	gb.AddEdge(0, 2)
	gb.AddEdge(4, 2)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := assemble(g.NumVertices(), func(emit func(int, ID)) {
		for v := ID(0); v < ID(g.NumVertices()); v++ {
			for _, u := range g.OutNeighbors(v) {
				emit(int(v), u)
			}
		}
	})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 and 3 are isolated; 2 has in-edges only.
	for _, v := range []int{1, 2, 3} {
		if c.RowLen(v) != 0 {
			t.Fatalf("isolated/in-only vertex %d: row %v, want empty", v, c.Row(v))
		}
	}
	if got := c.Row(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("row 0 = %v, want [2]", got)
	}
	if got := c.Row(4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("row 4 = %v, want [2]", got)
	}
}

// TestCSRDuplicateEdges: a multigraph edge emitted twice appears twice, in
// emission order — the CSR must not dedupe or sort.
func TestCSRDuplicateEdges(t *testing.T) {
	c := assemble(2, func(emit func(int, ID)) {
		emit(0, 3)
		emit(0, 1)
		emit(0, 3)
	})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	got := c.Row(0)
	want := []ID{3, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("row 0 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row 0 = %v, want %v (insertion order, duplicates kept)", got, want)
		}
	}
}

// TestCSRRowsDiscoveredWhileCounting: ingress learns of replica rows only as
// it walks the edges, so rows past the initial count appear mid-count, out of
// order and interleaved; rows named only by Grow, or skipped over by a later
// row, exist and are empty.
func TestCSRRowsDiscoveredWhileCounting(t *testing.T) {
	var a CSRAssembler[string]
	emissions := []struct {
		row  int
		item string
	}{{0, "a"}, {3, "b"}, {0, "c"}, {5, "d"}, {3, "e"}, {1, "f"}, {3, "g"}}
	for _, e := range emissions {
		a.Add(e.row, e.item)
	}
	a.Grow(8) // rows 6 and 7: never added to
	a.Grow(2) // never shrinks
	a.Fill()
	for _, e := range emissions {
		a.Add(e.row, e.item)
	}
	c := a.Build()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a", "c"}, {"f"}, {}, {"b", "e", "g"}, {}, {"d"}, {}, {}}
	if c.NumRows() != len(want) || c.NumItems() != len(emissions) {
		t.Fatalf("rows=%d items=%d, want %d/%d", c.NumRows(), c.NumItems(), len(want), len(emissions))
	}
	for r, w := range want {
		if got := c.Row(r); len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
			t.Fatalf("row %d = %v, want %v", r, got, w)
		}
	}
}

// TestCSRAssemblerRejectsUnequalPasses: a second run that does not replay the
// first is a caller bug Build must not turn into a silently wrong CSR.
func TestCSRAssemblerRejectsUnequalPasses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted a row that was counted twice and stored once")
		}
	}()
	var a CSRAssembler[int32]
	a.Add(0, 1)
	a.Add(0, 1)
	a.Add(1, 2)
	a.Fill()
	a.Add(0, 1)
	a.Add(1, 2)
	a.Build()
}

// TestCSROrderMatchesAdjacency is the determinism property test: for a
// seeded random graph, CSR row iteration must reproduce the seed
// adjacency-list order element for element. Engines rely on this to keep
// message emission order — and therefore every exact-diffed flight-recorder
// counter — identical across the map-to-CSR migration.
func TestCSROrderMatchesAdjacency(t *testing.T) {
	const n, deg = 500, 8
	gb := NewBuilder(n)
	// Deterministic pseudo-random multigraph, duplicates and self-loops
	// included, so the property covers the awkward shapes too.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for v := 0; v < n; v++ {
		for i := 0; i < deg; i++ {
			gb.AddWeightedEdge(ID(v), ID(next()%n), float64(next()%1000)/1000)
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}

	co := assemble(n, func(emit func(int, ID)) {
		for v := ID(0); v < ID(n); v++ {
			for _, u := range g.OutNeighbors(v) {
				emit(int(v), u)
			}
		}
	})
	cw := assemble(n, func(emit func(int, float64)) {
		for v := ID(0); v < ID(n); v++ {
			for _, w := range g.OutWeights(v) {
				emit(int(v), w)
			}
		}
	})
	if err := co.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := ID(0); v < ID(n); v++ {
		ns, wts := g.OutNeighbors(v), g.OutWeights(v)
		rn, rw := co.Row(int(v)), cw.Row(int(v))
		if len(rn) != len(ns) || len(rw) != len(wts) {
			t.Fatalf("vertex %d: CSR row len %d/%d, adjacency %d", v, len(rn), len(rw), len(ns))
		}
		for i := range ns {
			if rn[i] != ns[i] || rw[i] != wts[i] {
				t.Fatalf("vertex %d neighbor %d: CSR (%d,%g) != adjacency (%d,%g)",
					v, i, rn[i], rw[i], ns[i], wts[i])
			}
		}
	}
}

// BenchmarkCSRTraversal measures the hot-loop cost of iterating every row of
// a partition-sized CSR — the access pattern of the engines' gather loops.
// The CI perf gate asserts 0 allocs/op: traversal must never allocate.
func BenchmarkCSRTraversal(b *testing.B) {
	const n, deg = 4096, 16
	c := assemble(n, func(emit func(int, int32)) {
		for v := 0; v < n; v++ {
			for i := 0; i < deg; i++ {
				emit(v, int32((v*deg+i*2654435761)%n))
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for v := 0; v < n; v++ {
			for _, s := range c.Row(v) {
				sum += int64(s)
			}
		}
	}
	if sum == 42 {
		b.Log(sum) // keep the traversal live
	}
}

// TestCSRTraversalAllocs enforces the benchmark's invariant in the plain
// test run: row iteration performs zero allocations.
func TestCSRTraversalAllocs(t *testing.T) {
	c := assemble(64, func(emit func(int, int32)) {
		for v := 0; v < 64; v++ {
			for i := 0; i < 4; i++ {
				emit(v, int32(v+i))
			}
		}
	})
	var sum int64
	allocs := testing.AllocsPerRun(100, func() {
		for v := 0; v < 64; v++ {
			for _, s := range c.Row(v) {
				sum += int64(s)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("CSR traversal allocates %.1f per run, want 0", allocs)
	}
	_ = sum
}
