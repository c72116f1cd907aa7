package cyclops

import (
	"math"
	"math/rand"
	"testing"

	"cyclops/internal/cluster"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
)

// rowProg checks, from inside every Compute, that the context's bound arrays
// are the engine's current ones: In() must yield the graph's in-row in
// InNeighbors order, each neighbour's value as its master publishes it now,
// and the in-edge weights bit for bit. It publishes a value unique to (vertex,
// superstep) and activates its out-neighbours, so every superstep's view
// differs from the last.
type rowProg struct {
	t     *testing.T
	e     *Engine[float64, float64]
	slots [][]graph.ID // per worker: the vertex in each slot
}

func (rowProg) Init(id graph.ID, _ *graph.Graph) (float64, float64, bool) {
	return 0, float64(id) + 0.5, true
}

func (p *rowProg) Compute(ctx *Context[float64, float64]) {
	e, g, id := p.e, p.e.g, ctx.Vertex()
	w := e.assign.Of[id]
	view, srcs, weights := ctx.In()
	ins, wts := g.InNeighbors(id), g.InWeights(id)
	if len(srcs) != len(ins) || len(weights) != len(ins) {
		p.t.Errorf("step %d vertex %d: In() has %d sources, %d weights, want %d", ctx.Superstep(), id, len(srcs), len(weights), len(ins))
		return
	}
	for i, s := range srcs {
		u := ins[i]
		if got := p.slots[w][s]; got != u {
			p.t.Errorf("step %d vertex %d: source %d is vertex %d, want %d", ctx.Superstep(), id, i, got, u)
		}
		if got, want := view[s], e.ViewOf(u); math.Float64bits(got) != math.Float64bits(want) {
			p.t.Errorf("step %d vertex %d: source %d (vertex %d) reads %v, its master publishes %v", ctx.Superstep(), id, i, u, got, want)
		}
		if math.Float64bits(weights[i]) != math.Float64bits(wts[i]) {
			p.t.Errorf("step %d vertex %d: weight %d = %v, want %v", ctx.Superstep(), id, i, weights[i], wts[i])
		}
	}
	if ctx.Message() != e.ViewOf(id) || ctx.OutDegree() != g.OutDegree(id) || ctx.NumVertices() != g.NumVertices() {
		p.t.Errorf("step %d vertex %d: Message %v OutDegree %d NumVertices %d, want %v %d %d", ctx.Superstep(), id,
			ctx.Message(), ctx.OutDegree(), ctx.NumVertices(), e.ViewOf(id), g.OutDegree(id), g.NumVertices())
	}
	ctx.SetValue(ctx.Value() + 1)
	ctx.Publish(float64(id)+float64(ctx.Superstep()+1)*1e6, true)
}

// bindRows points p at e and records which vertex every slot of e holds.
func (p *rowProg) bindRows(e *Engine[float64, float64]) {
	p.e, p.slots = e, make([][]graph.ID, len(e.ws))
	for w, ws := range e.ws {
		p.slots[w] = append(append([]graph.ID(nil), ws.masters...), e.replicaIDs(w)...)
	}
}

// randomWeighted is a multigraph of n vertices with random weights,
// duplicate edges and self-loops included.
func randomWeighted(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddWeightedEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)), rng.NormFloat64())
	}
	return b.MustBuild()
}

// TestInRowMatchesGraph: for every master on every worker, In() yields the
// graph's in-neighbours in InNeighbors order, the view values their masters
// publish and the in-edge weights — on hash and multilevel cuts, flat and
// hierarchical clusters, after a Restore and on an Evolved engine, so an array
// bound once and left stale fails here.
func TestInRowMatchesGraph(t *testing.T) {
	g := randomWeighted(120, 700, 3)
	for _, part := range []partition.Partitioner{partition.Hash{}, partition.Multilevel{Seed: 5}} {
		for _, c := range []cluster.Config{cluster.Flat(2, 1), cluster.MT(2, 3, 2)} {
			p := &rowProg{t: t}
			e, err := New[float64, float64](g, p, Config[float64, float64]{Cluster: c, Partitioner: part, MaxSupersteps: 3})
			if err != nil {
				t.Fatal(err)
			}
			p.bindRows(e)
			start := e.Snapshot()
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(start); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			next, err := e.Evolve([]graph.Edge{{Src: 1, Dst: 130, Weight: 2.5}, {Src: 130, Dst: 7, Weight: -1}})
			if err != nil {
				t.Fatal(err)
			}
			p.bindRows(next)
			if _, err := next.Run(); err != nil {
				t.Fatal(err)
			}
			e.Close()
			next.Close()
			if t.Failed() {
				t.Fatalf("%T on %v", part, c)
			}
		}
	}
}
