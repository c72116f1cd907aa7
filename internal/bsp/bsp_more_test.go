package bsp

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/transport"
)

// ancestorMax computes, for every vertex, the maximum id among vertices that
// can reach it (including itself) — the fixpoint maxProg converges to.
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

// Property: on arbitrary random graphs and worker counts, the BSP engine's
// max propagation reaches the reachability fixpoint.
func TestMaxPropagationProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 2
		b := graph.NewBuilder(n)
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)))
		}
		g := b.MustBuild()
		workers := int(kRaw)%6 + 1
		e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
			Cluster:       cluster.Flat(workers, 1),
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPerSenderQueueModeEquivalent(t *testing.T) {
	g := gen.PowerLaw(300, 4, 9)
	run := func(perSender bool) ([]float64, int64) {
		e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
			Cluster:         cluster.Flat(2, 2),
			PerSenderQueues: perSender,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), e.Values()...), e.TransportStats().LockedEnqueues
	}
	gv, glocked := run(false)
	pv, plocked := run(true)
	for v := range gv {
		if gv[v] != pv[v] {
			t.Fatalf("queue mode changed results at vertex %d", v)
		}
	}
	if glocked == 0 {
		t.Error("global queue must count locked enqueues")
	}
	if plocked != 0 {
		t.Error("per-sender queue must not take the shared lock")
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
	g := ringGraph(12)
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
	// Each frame is a header plus 4 routing bytes and the value per message.
	if want := plain.Batches*transport.FrameHeaderBytes + plain.Messages*12; plain.WireBytes != want {
		t.Errorf("wire %d B, want %d headers + 12 B × %d msgs = %d", plain.WireBytes, plain.Batches, plain.Messages, want)
	}
	if got, want := wide.WireBytes-plain.WireBytes, 5*plain.Messages; got != want {
		t.Errorf("5 B wider codec moved wire by %d B, want 5 B × %d msgs = %d", got, plain.Messages, want)
	}
}

func TestOnStepRunsEveryBarrier(t *testing.T) {
	g := ringGraph(12)
	var steps []int
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(1, 2),
		MaxSupersteps: 6,
		OnStep: func(step int, _ *Engine[float64, float64]) {
			steps = append(steps, step)
		},
	})
	trace, _ := e.Run()
	if len(steps) != len(trace.Steps) {
		t.Fatalf("OnStep ran %d times for %d supersteps", len(steps), len(trace.Steps))
	}
	for i, s := range steps {
		if s != i {
			t.Fatalf("OnStep order broken: %v", steps)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	g := ringGraph(6)
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{Cluster: cluster.Flat(2, 1)})
	if e.Graph() != g {
		t.Error("Graph accessor broken")
	}
	if e.Assignment() == nil || e.Assignment().K != 2 {
		t.Error("Assignment accessor broken")
	}
	if e.Superstep() != 0 {
		t.Error("fresh engine must be at superstep 0")
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestCheckpointEveryStep(t *testing.T) {
	g := ringGraph(10)
	dir := t.TempDir()
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster:         cluster.Flat(1, 2),
		MaxSupersteps:   5,
		CheckpointDir:   dir,
		CheckpointEvery: 1,
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, err := checkpoint.Steps(dir); err != nil || !slices.Equal(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("checkpoints at %v (%v), want the baseline and one per superstep", got, err)
	}
}

func TestCheckpointErrorPropagates(t *testing.T) {
	// A directory under a regular file cannot be created, even by root.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	g := ringGraph(10)
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster:         cluster.Flat(1, 1),
		CheckpointDir:   filepath.Join(file, "ckpt"),
		CheckpointEvery: 1,
	})
	if _, err := e.Run(); err == nil {
		t.Fatal("checkpoint write error must abort the run")
	}
}
