package gas

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

// referenceCut is the vertex-cut construction New used to be, kept as the
// oracle: one pass over the placed edges that appends to a Go slice per row.
// Per worker it returns the local copies in slot order — id, whether the copy
// is the master, and where its master lives — and the adjacency relations as
// rows: in-edge sources and weights apart, out-slots and mirrors.
type referenceCut struct {
	verts     []referenceCopy
	in        [][]int32
	inWeights [][]float64
	outSlots  [][]int32
	mirrors   [][]mirrorRef
}

type referenceCopy struct {
	id                       graph.ID
	master                   bool
	masterWorker, masterSlot int32
}

func buildReferenceCut(g *graph.Graph, assign []int, k int) (cut []referenceCut, mirrors int64) {
	n := g.NumVertices()
	cut = make([]referenceCut, k)
	slotOf := make([][]int32, k)
	for w := range slotOf {
		slotOf[w] = make([]int32, n)
		for i := range slotOf[w] {
			slotOf[w][i] = -1
		}
	}
	ensure := func(w int, id graph.ID) int32 {
		if slotOf[w][id] < 0 {
			c := &cut[w]
			slotOf[w][id] = int32(len(c.verts))
			c.verts = append(c.verts, referenceCopy{id: id})
			c.in = append(c.in, nil)
			c.inWeights = append(c.inWeights, nil)
			c.outSlots = append(c.outSlots, nil)
			c.mirrors = append(c.mirrors, nil)
		}
		return slotOf[w][id]
	}
	i := 0
	for v := 0; v < n; v++ {
		wts := g.OutWeights(graph.ID(v))
		for j, u := range g.OutNeighbors(graph.ID(v)) {
			w := assign[i]
			i++
			sv, su := ensure(w, graph.ID(v)), ensure(w, u)
			cut[w].in[su] = append(cut[w].in[su], sv)
			cut[w].inWeights[su] = append(cut[w].inWeights[su], wts[j])
			cut[w].outSlots[sv] = append(cut[w].outSlots[sv], su)
		}
	}
	for v := 0; v < n; v++ {
		masterW := -1
		for w := 0; w < k && masterW < 0; w++ {
			if slotOf[w][v] >= 0 {
				masterW = w
			}
		}
		if masterW < 0 { // isolated: hosted by id
			masterW = v % k
			ensure(masterW, graph.ID(v))
		}
		ms := slotOf[masterW][v]
		for w := masterW; w < k; w++ {
			s := slotOf[w][v]
			if s < 0 {
				continue
			}
			cut[w].verts[s].master = w == masterW
			cut[w].verts[s].masterWorker, cut[w].verts[s].masterSlot = int32(masterW), ms
			if w != masterW {
				cut[masterW].mirrors[ms] = append(cut[masterW].mirrors[ms], mirrorRef{worker: int32(w), slot: s})
				mirrors++
			}
		}
	}
	return cut, mirrors
}

func rowsOf[T any](c graph.CSR[T]) [][]T {
	rows := make([][]T, c.NumRows())
	for r := range rows {
		if c.RowLen(r) > 0 {
			rows[r] = c.Row(r)
		}
	}
	return rows
}

// TestIngressMatchesAppendRowsReference: the two-pass construction must cut
// the graph exactly as the one-pass append-driven one did — same copies in
// the same slots, same master election, same rows in the same order, same
// mirror count — under both edge partitioners and from one worker to more
// workers than most vertices have edges.
func TestIngressMatchesAppendRowsReference(t *testing.T) {
	parts := []EdgePartitioner{RandomVertexCut{}, GreedyVertexCut{}}
	shapes := []cluster.Config{cluster.Flat(1, 1), cluster.Flat(2, 1), cluster.Flat(7, 1), cluster.Flat(6, 8)}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(120) + 1
		b := graph.NewBuilder(n) // self-loops, parallel edges and isolated vertices included
		for i, m := 0, rng.Intn(6*n); i < m; i++ {
			b.AddWeightedEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)), float64(rng.Intn(9)+1))
		}
		g := b.MustBuild()
		for _, part := range parts {
			for _, cc := range shapes {
				name := fmt.Sprintf("seed %d, %s, %d workers", seed, part.Name(), cc.Workers())
				e, err := New[float64, float64](g, prShare{n: n}, Config[float64, float64]{Cluster: cc, Partitioner: part})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, mirrors := buildReferenceCut(g, part.PartitionEdges(g, cc.Workers()), cc.Workers())
				var perWorker int64
				for w, ws := range e.ws {
					got := referenceCut{in: rowsOf(ws.in), inWeights: rowsOf(ws.inWeights),
						outSlots: rowsOf(ws.outSlots), mirrors: rowsOf(ws.mirrors)}
					for _, v := range ws.verts {
						got.verts = append(got.verts, referenceCopy{v.id, v.master, v.masterWorker, v.masterSlot})
					}
					// The reference grows its rows by append, so a worker
					// without copies has nil relations, not empty ones.
					if len(ws.verts) == 0 {
						got = referenceCut{}
					}
					if !reflect.DeepEqual(got, want[w]) {
						t.Fatalf("%s: worker %d\n got  %+v\n want %+v", name, w, got, want[w])
					}
					perWorker += e.mirrorsPerW[w]
					// The bitmap and the value array agree with the copies: a
					// master holds Init's value, a mirror its master's.
					for s, v := range ws.verts {
						if bit := ws.isMaster[s>>6]>>(s&63)&1 == 1; bit != v.master {
							t.Fatalf("%s: worker %d slot %d: isMaster bit %v, copy's master flag %v", name, w, s, bit, v.master)
						}
						seed, _ := prShare{n: n}.Init(v.id, g)
						if got, master := ws.vals[s], e.ws[v.masterWorker].vals[v.masterSlot]; math.Float64bits(got) != math.Float64bits(master) ||
							math.Float64bits(master) != math.Float64bits(seed) {
							t.Fatalf("%s: worker %d slot %d (vertex %d): value %v, master's %v, Init %v", name, w, s, v.id, got, master, seed)
						}
					}
				}
				if e.Mirrors() != mirrors || perWorker != mirrors {
					t.Fatalf("%s: Mirrors() = %d, per-worker sum %d, reference %d", name, e.Mirrors(), perWorker, mirrors)
				}
				e.Close()
			}
		}
	}
}

// TestNewRejectsBadEdgeTable: an edge table that does not give every edge
// exactly one worker in [0, k) is refused before anything is built, with an
// error naming the partitioner and the first bad edge.
func TestNewRejectsBadEdgeTable(t *testing.T) {
	g := gen.Road(4, 4, 0, 1)
	good := RandomVertexCut{}.PartitionEdges(g, 2)
	with := func(i, w int) []int {
		bad := append([]int(nil), good...)
		bad[i] = w
		return bad
	}
	cases := []struct {
		name  string
		table []int
		want  string
	}{
		{"one short", good[:len(good)-1], fmt.Sprintf("edge table has %d entries for %d edges (first mismatch at edge %d)", len(good)-1, len(good), len(good)-1)},
		{"five long", append(append([]int(nil), good...), 0, 1, 0, 1, 0), fmt.Sprintf("edge table has %d entries for %d edges (first mismatch at edge %d)", len(good)+5, len(good), len(good))},
		{"worker k", with(7, 2), "edge 7 placed on worker 2, want [0, 2)"},
		{"worker -1", with(0, -1), "edge 0 placed on worker -1, want [0, 2)"},
	}
	for _, c := range cases {
		_, err := New[float64, float64](g, prShare{n: g.NumVertices()}, Config[float64, float64]{
			Cluster: cluster.Flat(2, 1), Partitioner: fixedCut{of: c.table},
		})
		if err == nil || !strings.Contains(err.Error(), "fixed-cut: "+c.want) {
			t.Errorf("%s: New error %v, want one containing %q", c.name, err, "fixed-cut: "+c.want)
		}
	}
}

// TestIngressAllocsDoNotGrowWithGraph: construction makes each of its arrays
// once at its exact size, so a graph five times larger costs no more
// allocations. A row grown by append, or a map, would.
func TestIngressAllocsDoNotGrowWithGraph(t *testing.T) {
	allocs := func(scale float64) float64 {
		g, _, err := gen.Dataset("gweb", scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config[float64, float64]{Cluster: cluster.Flat(2, 1), Partitioner: fixedCut{of: RandomVertexCut{}.PartitionEdges(g, 2)}}
		return testing.AllocsPerRun(3, func() {
			e, err := New[float64, float64](g, prShare{n: g.NumVertices()}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Close()
		})
	}
	if small, large := allocs(0.1), allocs(0.5); large > small+2 {
		t.Fatalf("New allocates %.0f times on gweb@0.5 but %.0f on gweb@0.1", large, small)
	}
}

// BenchmarkIngress prices New — edge placement, election, rows and Init — on
// bench/'s pr-web-gas shape: gweb@0.5 over Flat(2,1), with a random
// vertex-cut table computed once, outside the timer. Run it with -cpu 1, as
// bench/ runs on one P.
func BenchmarkIngress(b *testing.B) {
	g, _, err := gen.Dataset("gweb", 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config[float64, float64]{Cluster: cluster.Flat(2, 1), Partitioner: fixedCut{of: RandomVertexCut{}.PartitionEdges(g, 2)}}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		e, err := New[float64, float64](g, prShare{n: g.NumVertices()}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumEdges()), "ns/edge")
}
