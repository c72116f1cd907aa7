package cyclops

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
)

// referenceView is the ingress buildView used to be, kept as the oracle: one
// pass over the edges that appends to a Go slice per row and remembers every
// replica in a workers×|V| table. It returns, per worker, the replica ids in
// slot order, the three adjacency relations as rows, and the send plan as
// the per-peer rows of the replica locations it kept per master.
type referenceView struct {
	replicaIDs []graph.ID
	in         [][]int32
	inWeights  [][]float64
	localOut   [][]int32
	plan       [][]planEntry
}

// replicaRef locates one replica of a master, as the per-master replica
// lists the send plan replaced did.
type replicaRef struct{ worker, slot int32 }

func buildReferenceView(g *graph.Graph, assign *partition.Assignment, workers int) []referenceView {
	n := g.NumVertices()
	masterSlot := make([]int32, n)
	masters := make([]int32, workers)
	for v := 0; v < n; v++ {
		masterSlot[v] = masters[assign.Of[v]]
		masters[assign.Of[v]]++
	}
	view := make([]referenceView, workers)
	replicas := make([][][]replicaRef, workers) // per worker, per master
	slotOn := make([][]int32, workers)
	for w := range view {
		m := int(masters[w])
		view[w] = referenceView{
			in: make([][]int32, m), inWeights: make([][]float64, m),
			localOut: make([][]int32, m), plan: make([][]planEntry, workers),
		}
		replicas[w] = make([][]replicaRef, m)
		slotOn[w] = make([]int32, n)
		for i := range slotOn[w] {
			slotOn[w][i] = -1
		}
	}
	for u := 0; u < n; u++ {
		wu, su := assign.Of[u], masterSlot[u]
		wts := g.OutWeights(graph.ID(u))
		for i, v := range g.OutNeighbors(graph.ID(u)) {
			wv, sv := assign.Of[v], masterSlot[v]
			src := su
			if wu != wv {
				if slotOn[wv][u] < 0 {
					slotOn[wv][u] = masters[wv] + int32(len(view[wv].replicaIDs))
					view[wv].replicaIDs = append(view[wv].replicaIDs, graph.ID(u))
					view[wv].localOut = append(view[wv].localOut, nil)
					replicas[wu][su] = append(replicas[wu][su], replicaRef{worker: int32(wv), slot: slotOn[wv][u]})
				}
				src = slotOn[wv][u]
			}
			view[wv].in[sv] = append(view[wv].in[sv], src)
			view[wv].inWeights[sv] = append(view[wv].inWeights[sv], wts[i])
			view[wv].localOut[src] = append(view[wv].localOut[src], sv)
		}
	}
	for w := range view {
		for su, refs := range replicas[w] {
			for _, ref := range refs {
				view[w].plan[ref.worker] = append(view[w].plan[ref.worker], planEntry{master: int32(su), replica: ref.slot})
			}
		}
	}
	return view
}

// rowsOf reads a CSR back as rows, nil for an empty row as append leaves it.
func rowsOf[T any](c graph.CSR[T]) [][]T {
	rows := make([][]T, c.NumRows())
	for r := range rows {
		if c.RowLen(r) > 0 {
			rows[r] = c.Row(r)
		}
	}
	return rows
}

// randomMultigraph draws n vertices and m weighted edges, self-loops and
// parallel edges included, leaving some vertices isolated.
func randomMultigraph(rng *rand.Rand) *graph.Graph {
	n := rng.Intn(120) + 1
	b := graph.NewBuilder(n)
	for i, m := 0, rng.Intn(6*n); i < m; i++ {
		b.AddWeightedEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)), float64(rng.Intn(9)+1))
	}
	return b.MustBuild()
}

// TestIngressMatchesAppendRowsReference: the gather-built ingress must wire
// exactly the view the one-pass append-driven ingress did — same replica ids
// in the same slots, same rows in the same order — for every partitioner and
// from one worker to more workers than most partitions have vertices, on
// bench/'s power-law graph under the hash cut, on a road lattice under the
// multilevel cut, and with a worker that masters nothing. The
// flight-recorder gate's byte-identity rests on this.
func TestIngressMatchesAppendRowsReference(t *testing.T) {
	parts := []partition.Partitioner{partition.Hash{}, partition.Range{}, partition.Multilevel{Seed: 1}}
	shapes := []cluster.Config{cluster.Flat(1, 1), cluster.Flat(2, 1), cluster.Flat(7, 1), cluster.Flat(6, 8)}
	for seed := int64(0); seed < 12; seed++ {
		g := randomMultigraph(rand.New(rand.NewSource(seed)))
		for _, part := range parts {
			for _, cc := range shapes {
				checkIngress(t, fmt.Sprintf("seed %d, %s, %d workers", seed, part.Name(), cc.Workers()), g, part, cc)
			}
		}
	}
	web, _, err := gen.Dataset("gweb", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkIngress(t, "gweb@0.05, hash, 2 workers", web, partition.Hash{}, cluster.Flat(2, 1))
	checkIngress(t, "road 8x64, multilevel, 6 workers", gen.Road(8, 64, 0, 1), partition.Multilevel{Seed: 1}, cluster.Flat(6, 1))
	g := randomMultigraph(rand.New(rand.NewSource(3)))
	idle := make([]int, g.NumVertices()) // worker 1 masters nothing
	for v := range idle {
		idle[v] = []int{0, 2}[v%2]
	}
	checkIngress(t, "worker 1 of 3 masters nothing", g, fixedPart{of: idle}, cluster.Flat(3, 1))
}

// checkIngress builds the engine and compares its view with the reference's.
func checkIngress(t *testing.T, name string, g *graph.Graph, part partition.Partitioner, cc cluster.Config) {
	t.Helper()
	e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{Cluster: cc, Partitioner: part})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer e.Close()
	want := buildReferenceView(g, e.assign, cc.Workers())
	var replicas int64
	for w, ws := range e.ws {
		got := referenceView{
			replicaIDs: e.replicaIDs(w),
			in:         rowsOf(ws.in), inWeights: rowsOf(ws.inWeights),
			localOut: rowsOf(ws.localOut), plan: rowsOf(e.plan[w]),
		}
		if !reflect.DeepEqual(got, want[w]) {
			t.Fatalf("%s: worker %d\n got  %+v\n want %+v", name, w, got, want[w])
		}
		replicas += int64(len(got.replicaIDs))
	}
	if e.Ingress().Replicas != replicas {
		t.Fatalf("%s: Ingress().Replicas = %d, workers hold %d", name, e.Ingress().Replicas, replicas)
	}
}

// TestIngressScratchIsNotWorkersByV: from 2 workers to 64 on one graph, the
// bytes New allocates grow by less than a workers×|V| int32 table would add
// on its own — ingress keeps one |V| table, reused worker by worker.
func TestIngressScratchIsNotWorkersByV(t *testing.T) {
	g := gen.PowerLaw(1<<14, 4, 1)
	allocated := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{Cluster: cluster.Flat(workers, 1)})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	few, many := allocated(2), allocated(64)
	t.Logf("New allocates %d B on 2 workers, %d B on 64", few, many)
	if table := uint64(64-2) * uint64(g.NumVertices()) * 4; many > few+table {
		t.Fatalf("New allocates %d B on 2 workers and %d B on 64: grew %d B, a workers×|V| table's %d or more",
			few, many, many-few, table)
	}
}

// BenchmarkIngress prices New — layout, replicas, view, plan and Init — on
// bench/'s pr-web-cyclops shape: gweb@0.5 over Flat(2,1), with a hash
// assignment computed once, outside the timer. Run it with -cpu 1, as bench/
// runs on one P.
func BenchmarkIngress(b *testing.B) {
	g, _, err := gen.Dataset("gweb", 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := partition.Hash{}.Partition(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config[float64, float64]{Cluster: cluster.Flat(2, 1), Partitioner: fixedPart{of: a.Of}}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		e, err := New[float64, float64](g, maxProg{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumEdges()), "ns/edge")
}
