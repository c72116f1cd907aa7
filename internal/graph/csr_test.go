package graph

import "testing"

// assemble collects walk's emissions into per-row slices, then lays the rows
// end to end through NewCSR, as ingress gathers each row in order.
func assemble[T any](rows int, walk func(emit func(row int, item T))) CSR[T] {
	per := make([][]T, rows)
	walk(func(r int, item T) { per[r] = append(per[r], item) })
	offsets, items := make([]int64, rows+1), []T(nil)
	for r, row := range per {
		items = append(items, row...)
		offsets[r+1] = int64(len(items))
	}
	return NewCSR(offsets, items)
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
	none := assemble(0, func(func(int, int32)) {})
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
