package gas

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cyclops/internal/cluster"
	"cyclops/internal/graph"
)

// referenceCut is the vertex-cut construction New used to be, kept as the
// oracle: one pass over the placed edges that appends to a Go slice per row.
// Per worker it returns the local copies in slot order — id, whether the copy
// is the master, and where its master lives — and the three adjacency
// relations as rows.
type referenceCut struct {
	verts    []referenceCopy
	inEdges  [][]gasEdge
	outSlots [][]int32
	mirrors  [][]mirrorRef
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
			c.inEdges = append(c.inEdges, nil)
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
			cut[w].inEdges[su] = append(cut[w].inEdges[su], gasEdge{srcSlot: sv, weight: wts[j]})
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
					got := referenceCut{inEdges: rowsOf(ws.inEdges), outSlots: rowsOf(ws.outSlots), mirrors: rowsOf(ws.mirrors)}
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
				}
				if e.Mirrors() != mirrors || perWorker != mirrors {
					t.Fatalf("%s: Mirrors() = %d, per-worker sum %d, reference %d", name, e.Mirrors(), perWorker, mirrors)
				}
				e.Close()
			}
		}
	}
}
