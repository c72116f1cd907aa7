package partition

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

// loaded writes g as a text edge list and reads it back with graph.Load, the
// way bench/ hands its inputs to the program: vertices renumbered by first
// appearance, which no label permutation of the file changes.
func loaded(tb testing.TB, g *graph.Graph) *graph.Graph {
	tb.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		tb.Fatal(err)
	}
	l, _, err := graph.Load(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// BenchmarkMultilevel prices Multilevel at k = 2 on the graphs bench/ hands
// the program, each loaded through graph.Load: the 64×512 lattice its SSSP
// workload partitions, and gweb@0.5. It reports ns/edge; run it with -cpu 1
// and -benchmem, as bench/ runs on one P.
func BenchmarkMultilevel(b *testing.B) {
	web, _, err := gen.Dataset("gweb", 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{{"lattice", loaded(b, gen.Road(64, 512, 0, 1))}, {"gweb", loaded(b, web)}} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := (Multilevel{}).Partition(in.g, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*in.g.NumEdges()), "ns/edge")
		})
	}
}

// TestMultilevelAssignmentPinned pins Multilevel's assignment, vertex by
// vertex, on the inputs the benchmarks and experiments partition. The hashes
// were recorded before the partitioner was rewritten to merge rows, refine
// only boundary vertices and reuse one permutation buffer; every one of those
// changes claims to leave the assignment bit-identical, so replica counts,
// messages and wire bytes cannot move either.
func TestMultilevelAssignmentPinned(t *testing.T) {
	web, _, err := gen.Dataset("gweb", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lattice := loaded(t, gen.Road(64, 512, 0, 1))
	road := gen.Road(20, 37, 0.05, 5)
	community, _ := gen.Community(16, 60, 3, 0, 7)
	cases := []struct {
		name string
		g    *graph.Graph
		m    Multilevel
		k    int
		want uint64
	}{
		{"lattice-64x512/k2", lattice, Multilevel{}, 2, 0x1bce078947eebe75},
		{"road-20x37/k2", road, Multilevel{Seed: 5}, 2, 0x4ac3400a8a269705},
		{"road-20x37/k3", road, Multilevel{Seed: 5}, 3, 0xccc6234c38654466},
		{"road-20x37/k8", road, Multilevel{Seed: 5}, 8, 0xb6096642c3750375},
		{"gweb@0.2/k4", web, Multilevel{}, 4, 0xb5e95edc56b22606},
		{"community/k8", community, Multilevel{Seed: 1}, 8, 0x5448080f8dfe45a5},
		{"ring5/k16", ring(5), Multilevel{Seed: 1}, 16, 0xe01f020ad3faf7c1},
	}
	for _, c := range cases {
		a, err := c.m.Partition(c.g, c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := fnv.New64a()
		for _, p := range a.Of {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(p)))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: assignment hash %#x, pinned %#x (cut %d)", c.name, got, c.want, a.EdgeCut(c.g))
		}
	}
}

// referenceUndirected is toUndirected as it was before rows were merged: every
// non-loop edge v→w expands to the halves (v,w) and (w,v), the halves are
// sorted, and each run of equal halves becomes one entry weighted by its
// length.
func referenceUndirected(g *graph.Graph) *ugraph {
	n := g.NumVertices()
	type half struct {
		u, v int32
	}
	halves := make([]half, 0, 2*g.NumEdges())
	for v := 0; v < n; v++ {
		for _, w := range g.OutNeighbors(graph.ID(v)) {
			if int(w) == v {
				continue
			}
			halves = append(halves, half{int32(v), int32(w)}, half{int32(w), int32(v)})
		}
	}
	sort.Slice(halves, func(i, j int) bool {
		if halves[i].u != halves[j].u {
			return halves[i].u < halves[j].u
		}
		return halves[i].v < halves[j].v
	})
	ug := &ugraph{xadj: make([]int32, n+1), vwgt: make([]int64, n)}
	for i := range ug.vwgt {
		ug.vwgt[i] = 1
	}
	for i := 0; i < len(halves); {
		j := i
		var w int64
		for j < len(halves) && halves[j] == halves[i] {
			w++
			j++
		}
		ug.adj = append(ug.adj, halves[i].v)
		ug.ewgt = append(ug.ewgt, w)
		ug.xadj[halves[i].u+1]++
		i = j
	}
	for v := 0; v < n; v++ {
		ug.xadj[v+1] += ug.xadj[v]
	}
	return ug
}

// TestUndirectedMatchesSortReference: merging a vertex's out-row with its
// in-row gives exactly the rows the sorted halves gave — same neighbours in
// the same order, same parallel-edge weights, self-loops dropped — on random
// multigraphs built by the Builder (self-loops, parallel edges and isolated
// vertices kept) and by graph.Load, and on the pinned inputs.
func TestUndirectedMatchesSortReference(t *testing.T) {
	check := func(name string, g *graph.Graph) {
		t.Helper()
		got, want := toUndirected(g), referenceUndirected(g)
		if !slices.Equal(got.xadj, want.xadj) || !slices.Equal(got.adj, want.adj) ||
			!slices.Equal(got.ewgt, want.ewgt) || !slices.Equal(got.vwgt, want.vwgt) {
			t.Fatalf("%s: merged rows differ from the sorted halves:\nxadj %v\n     %v\nadj  %v\n     %v\newgt %v\n     %v",
				name, got.xadj, want.xadj, got.adj, want.adj, got.ewgt, want.ewgt)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		m := rng.Intn(6 * n)
		b := graph.NewBuilder(n + rng.Intn(3)) // the extra vertices are isolated
		var text strings.Builder
		for range m {
			src, dst := rng.Intn(n), rng.Intn(n)
			if rng.Intn(8) == 0 {
				dst = src
			}
			b.AddEdge(graph.ID(src), graph.ID(dst))
			if rng.Intn(4) == 0 { // a parallel edge, maybe the reverse way
				b.AddEdge(graph.ID(dst), graph.ID(src))
			}
			fmt.Fprintf(&text, "%d %d\n", 1000+src*7, 1000+dst*7)
		}
		check(fmt.Sprintf("builder/seed=%d", seed), b.MustBuild())
		g, _, err := graph.Load(strings.NewReader(text.String()))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("load/seed=%d", seed), g)
	}
	web, _, err := gen.Dataset("gweb", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("gweb@0.2", web)
	check("lattice-64x512", loaded(t, gen.Road(64, 512, 0, 1)))
	check("road-20x37", gen.Road(20, 37, 0.05, 5))
}

// TestRefineBoundaryCount: the ext counts refine keeps up to date move by
// move equal a recount from the final assignment, on every coarsening level
// of several graphs, from both a random assignment (most vertices on the
// boundary, many moves) and the grown one Partition starts from.
func TestRefineBoundaryCount(t *testing.T) {
	web, _, err := gen.Dataset("gweb", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	community, _ := gen.Community(16, 60, 3, 0, 7)
	graphs := map[string]*graph.Graph{
		"road": gen.Road(20, 37, 0.05, 5), "gweb": web, "community": community, "er": gen.ErdosRenyi(300, 1200, 3),
	}
	for name, g := range graphs {
		for _, k := range []int{2, 3, 8} {
			rng := rand.New(rand.NewSource(int64(k)))
			perm := make([]int32, g.NumVertices())
			moves := 0
			for u := toUndirected(g); ; {
				for _, grown := range []bool{false, true} {
					part := make([]int32, u.n())
					if grown {
						part = growInitial(u, k, rng, perm)
					} else {
						for v := range part {
							part[v] = int32(rng.Intn(k))
						}
					}
					before := slices.Clone(part)
					maxWeight := int64(1.05*float64(g.NumVertices())/float64(k)) + 1
					ext := refine(u, part, k, maxWeight, 4, rng, perm)
					for v := range part {
						if part[v] != before[v] {
							moves++
						}
						want := int32(0)
						for _, nb := range u.adj[u.xadj[v]:u.xadj[v+1]] {
							if part[nb] != part[v] {
								want++
							}
						}
						if ext[v] != want {
							t.Fatalf("%s k=%d |V|=%d: ext[%d] = %d after refine, recount %d", name, k, u.n(), v, ext[v], want)
						}
					}
				}
				if u.n() <= 2*k {
					break
				}
				coarse, _ := coarsen(u, rng, perm)
				if coarse.n() > u.n()*9/10 {
					break
				}
				u = coarse
			}
			if moves == 0 {
				t.Fatalf("%s k=%d: refine moved nothing; the check is vacuous", name, k)
			}
		}
	}
}

// TestPermIntoIsRandPerm: permInto draws the permutation rand.Perm draws and
// leaves the generator where rand.Perm leaves it, so reusing one buffer
// cannot move any later draw.
func TestPermIntoIsRandPerm(t *testing.T) {
	buf := make([]int32, 1000)
	for _, n := range []int{0, 1, 2, 1000} {
		for seed := int64(0); seed < 5; seed++ {
			a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := permInto(a, n, buf), b.Perm(n)
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("n=%d seed=%d: permInto[%d] = %d, rand.Perm %d", n, seed, i, got[i], want[i])
				}
			}
			if len(got) != n || a.Int63() != b.Int63() {
				t.Fatalf("n=%d seed=%d: permInto left the generator elsewhere than rand.Perm", n, seed)
			}
		}
	}
}
