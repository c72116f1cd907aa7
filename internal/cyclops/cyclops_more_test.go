package cyclops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// ancestorMax is the reachability fixpoint maxProg converges to.
func ancestorMax(g *graph.Graph) []float64 {
	n := g.NumVertices()
	val := make([]float64, n)
	for v := range val {
		val[v] = float64(v)
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			for _, u := range g.OutNeighbors(graph.ID(v)) {
				if val[v] > val[u] {
					val[u] = val[v]
					changed = true
				}
			}
		}
	}
	return val
}

// Property: on arbitrary random graphs, worker counts, thread counts and
// receiver counts, the Cyclops engine reaches the reachability fixpoint —
// the distributed immutable view plus distributed activation loses nothing.
func TestMaxPropagationProperty(t *testing.T) {
	f := func(seed int64, shape uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 2
		b := graph.NewBuilder(n)
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)))
		}
		g := b.MustBuild()
		cc := cluster.Config{
			Machines:          int(shape)%4 + 1,
			WorkersPerMachine: int(shape>>2)%3 + 1,
			Threads:           int(shape>>4)%4 + 1,
			Receivers:         int(shape>>6)%3 + 1,
		}
		e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
			Cluster:       cc,
			MaxSupersteps: 10 * n,
		})
		if err != nil {
			return false
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		want := ancestorMax(g)
		got := e.Values()
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: trace message totals equal the transport's delivered counts —
// nothing is double-counted or lost between the engine and the wire.
func TestTraceMatchesTransportProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.PowerLaw(150, 4, seed)
		e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
			Cluster: cluster.Flat(3, 1),
		})
		if err != nil {
			return false
		}
		trace, err := e.Run()
		if err != nil {
			return false
		}
		return trace.TotalMessages() == e.TransportStats().Messages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// paddedCodec is Float64Codec followed by pad zero bytes. A run under it must
// cost exactly pad more wire bytes per message than one under Float64Codec:
// the codec, and nothing else, prices the traffic.
type paddedCodec struct{ pad int }

func (c paddedCodec) EncodedSize(float64) int { return 8 + c.pad }
func (c paddedCodec) FixedSize() int          { return 8 + c.pad }

func (c paddedCodec) Append(dst []byte, m float64) []byte {
	return append(graph.Float64Codec{}.Append(dst, m), make([]byte, c.pad)...)
}

func (c paddedCodec) Decode(src []byte) (float64, int, error) {
	if len(src) < 8+c.pad {
		return 0, 0, graph.ErrShortBuffer
	}
	v, _, err := graph.Float64Codec{}.Decode(src)
	return v, 8 + c.pad, err
}

func TestMsgCodecPricesWire(t *testing.T) {
	g := gen.PowerLaw(200, 4, 5)
	run := func(codec graph.Codec[float64]) transport.Snapshot {
		e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
			Cluster: cluster.Flat(3, 1), MsgCodec: codec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.TransportStats()
	}
	plain, wide := run(graph.Float64Codec{}), run(paddedCodec{pad: 5})
	if plain.Messages == 0 || wide.Messages != plain.Messages || wide.Batches != plain.Batches {
		t.Fatalf("runs differ in traffic: %v vs %v", plain, wide)
	}
	// A sync frame's body is a mode byte, the plan bitmap and the values: only
	// the values grow with the codec.
	if got, want := wide.WireBytes-plain.WireBytes, 5*plain.Messages; got != want {
		t.Errorf("5 B wider codec moved wire by %d B, want 5 B × %d msgs = %d", got, plain.Messages, want)
	}
}

func TestMoreReceiversThanBatches(t *testing.T) {
	// 2 workers but 8 receivers per worker: receivers idle harmlessly.
	g := ringGraph(16)
	e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.MT(2, 2, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for v, val := range e.Values() {
		if val != 15 {
			t.Fatalf("vertex %d = %g", v, val)
		}
	}
}

func TestIngressDeterministic(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2)
	a, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(4, 1), Partitioner: partition.Multilevel{Seed: 9},
	})
	b, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(4, 1), Partitioner: partition.Multilevel{Seed: 9},
	})
	if a.Ingress().Replicas != b.Ingress().Replicas {
		t.Fatalf("ingress not deterministic: %d vs %d replicas",
			a.Ingress().Replicas, b.Ingress().Replicas)
	}
}

func TestSelfLoopDoesNotDeadlockActivation(t *testing.T) {
	// A self-loop makes a vertex its own in- and out-neighbor; the engine
	// must neither create a self-replica nor loop forever.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(2, 1),
		Partitioner:   partition.Range{},
		MaxSupersteps: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Steps) >= 50 {
		t.Fatal("self-loop run did not terminate")
	}
	if got := e.Values(); got[1] != 1 || got[2] != 2 {
		t.Fatalf("values = %v", got)
	}
}

func TestIsolatedVerticesTerminateImmediately(t *testing.T) {
	g := graph.NewBuilder(10).MustBuild() // 10 isolated vertices
	e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(3, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Everyone computes once (all start active), publishes to nobody,
	// nothing activates: exactly one superstep.
	if len(trace.Steps) != 1 {
		t.Fatalf("steps = %d, want 1", len(trace.Steps))
	}
	if trace.TotalMessages() != 0 {
		t.Fatal("isolated vertices must not message")
	}
}

func TestCloseIdempotent(t *testing.T) {
	g := ringGraph(4)
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChangedCountTracksEqualHook(t *testing.T) {
	g := ringGraph(8)
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(2, 1),
		Equal:   func(a, b float64) bool { return a == b },
	})
	trace, _ := e.Run()
	// Step 0 on a directed ring: only vertex 0 sees a larger in-neighbor
	// (n-1), so exactly one published value differs from the seeded view;
	// the other publishes re-announce the init value and count as unchanged.
	if trace.Steps[0].Changed != 1 {
		t.Fatalf("step 0 changed = %d, want 1 (only vertex 0 improves)", trace.Steps[0].Changed)
	}
	if len(trace.Steps) < 2 || trace.Steps[1].Changed == 0 {
		t.Fatal("step 1 must record changed values (max flows around the ring)")
	}
}
