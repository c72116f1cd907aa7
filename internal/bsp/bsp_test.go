package bsp

import (
	"math"
	"testing"

	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// maxProg is the classic max-propagation program: every vertex converges to
// the maximum vertex id in its connected component. Push-mode and
// vote-to-halt driven, so it exercises activation semantics precisely.
type maxProg struct{}

func (maxProg) Init(id graph.ID, _ *graph.Graph) float64 { return float64(id) }

func (maxProg) Compute(ctx *Context[float64, float64], msgs []float64) {
	val := ctx.Value()
	updated := ctx.Superstep() == 0 // everyone announces once at the start
	for _, m := range msgs {
		if m > val {
			val = m
			updated = true
		}
	}
	if updated {
		ctx.SetValue(val)
		ctx.SendToNeighbors(val)
	}
	ctx.VoteToHalt()
}

func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.ID(v), graph.ID((v+1)%n))
	}
	return b.MustBuild()
}

func TestMaxPropagationRing(t *testing.T) {
	g := ringGraph(40)
	e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(2, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v, val := range e.Values() {
		if val != 39 {
			t.Fatalf("vertex %d = %g, want 39", v, val)
		}
	}
	// A directed ring needs ~n supersteps for the max to circulate.
	if len(trace.Steps) < 39 {
		t.Errorf("only %d supersteps; max cannot have circulated", len(trace.Steps))
	}
	// Natural termination: the final superstep sent no messages.
	last := trace.Steps[len(trace.Steps)-1]
	if last.Messages != 0 {
		t.Errorf("final superstep sent %d messages", last.Messages)
	}
}

func TestRequiredArguments(t *testing.T) {
	if _, err := New[float64, float64](nil, maxProg{}, Config[float64, float64]{}); err == nil {
		t.Error("nil graph must error")
	}
	if _, err := New[float64, float64](ringGraph(3), nil, Config[float64, float64]{}); err == nil {
		t.Error("nil program must error")
	}
}

func TestMaxSuperstepsBudget(t *testing.T) {
	g := ringGraph(100)
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(1, 4),
		MaxSupersteps: 5,
	})
	trace, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Steps) != 5 {
		t.Fatalf("ran %d supersteps, want exactly 5", len(trace.Steps))
	}
}

// aggProg publishes each vertex's value into a sum aggregator and halts when
// the engine's Halt function fires.
type aggProg struct{}

func (aggProg) Init(id graph.ID, _ *graph.Graph) float64 { return 1 }

func (aggProg) Compute(ctx *Context[float64, float64], msgs []float64) {
	ctx.Aggregate("total", ctx.Value())
	ctx.SendToNeighbors(0) // keep everyone alive, pull-mode style
}

func TestAggregatorVisibilityNextStep(t *testing.T) {
	g := ringGraph(10)
	var sawStep1 float64 = -1
	e, _ := New[float64, float64](g, aggProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(1, 2),
		MaxSupersteps: 3,
		OnStep: func(step int, e *Engine[float64, float64]) {
			if step == 1 {
				if v, ok := e.Aggregates().Value("total"); ok {
					sawStep1 = v
				}
			}
		},
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sawStep1 != 10 {
		t.Fatalf("aggregate after step 1 = %g, want 10", sawStep1)
	}
}

func TestHaltFunc(t *testing.T) {
	g := ringGraph(10)
	e, _ := New[float64, float64](g, aggProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(1, 2),
		MaxSupersteps: 50,
		Halt:          func(step int, _ func(string) (float64, bool), _ int64) bool { return step >= 3 },
	})
	trace, _ := e.Run()
	if len(trace.Steps) != 4 {
		t.Fatalf("halt did not fire: %d steps", len(trace.Steps))
	}
}

// fanProg sends one message per out-edge carrying the sender id; used for
// combiner and message-count tests.
type fanProg struct{}

func (fanProg) Init(id graph.ID, _ *graph.Graph) float64 { return 0 }

func (fanProg) Compute(ctx *Context[float64, float64], msgs []float64) {
	var sum float64
	for _, m := range msgs {
		sum += m
	}
	ctx.SetValue(ctx.Value() + sum)
	if ctx.Superstep() == 0 {
		ctx.SendToNeighbors(1)
	}
	ctx.VoteToHalt()
}

func TestCombinerReducesMessages(t *testing.T) {
	// A 2-level fan-in: many sources point at one sink; with a combiner, the
	// messages from each worker collapse to one per worker.
	b := graph.NewBuilder(33)
	for v := 1; v < 33; v++ {
		b.AddEdge(graph.ID(v), 0)
	}
	g := b.MustBuild()

	run := func(combine bool) (int64, float64) {
		cfg := Config[float64, float64]{Cluster: cluster.Flat(1, 4), MaxSupersteps: 3}
		if combine {
			cfg.Combiner = func(a, b float64) float64 { return a + b }
		}
		e, err := New[float64, float64](g, fanProg{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.TransportStats().Messages, e.Values()[0]
	}
	plainMsgs, plainVal := run(false)
	combMsgs, combVal := run(true)
	if plainVal != 32 || combVal != 32 {
		t.Fatalf("sink values: plain=%g combined=%g, want 32", plainVal, combVal)
	}
	if combMsgs >= plainMsgs {
		t.Fatalf("combiner did not reduce messages: %d vs %d", combMsgs, plainMsgs)
	}
	if combMsgs > 4 {
		t.Fatalf("combined messages = %d, want ≤ one per worker", combMsgs)
	}
}

// stayAliveProg mimics pull-mode BSP: every vertex sends its value to
// neighbors every superstep; values stop changing after step 0.
type stayAliveProg struct{}

func (stayAliveProg) Init(id graph.ID, _ *graph.Graph) float64 { return 1 }

func (stayAliveProg) Compute(ctx *Context[float64, float64], msgs []float64) {
	ctx.SetValue(1) // unchanged forever under Equal
	ctx.SendToNeighbors(1)
}

func TestRedundantMessageAccounting(t *testing.T) {
	g := ringGraph(20)
	e, _ := New[float64, float64](g, stayAliveProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(1, 2),
		MaxSupersteps: 3,
		Equal:         func(a, b float64) bool { return a == b },
	})
	trace, _ := e.Run()
	// Step 0 changes nothing (SetValue(1) == initial 1), so all messages are
	// redundant in every superstep.
	for _, s := range trace.Steps {
		if s.Messages == 0 {
			t.Fatal("pull-mode program must keep sending")
		}
		if s.RedundantMessages != s.Messages {
			t.Fatalf("step %d: redundant=%d, messages=%d", s.Step, s.RedundantMessages, s.Messages)
		}
		if s.Changed != 0 {
			t.Fatalf("step %d: changed=%d, want 0", s.Step, s.Changed)
		}
	}
}

func TestVertexReactivationByMessage(t *testing.T) {
	// Path 0→1→2: vertex 2 halts immediately but must be re-activated when
	// the wave reaches it.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(1, 3), Partitioner: partition.Range{},
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Values()[2] != 2 {
		t.Fatalf("vertex 2 = %g", e.Values()[2])
	}
	if e.Values()[1] != 1 {
		t.Fatalf("vertex 1 = %g, want its own id (0 cannot beat 1)", e.Values()[1])
	}
}

// TestCheckpointRestoreIdenticalResult restores a mid-run checkpoint into a
// fresh engine on each network and requires the continued run to equal the
// uninterrupted one. The checkpoint holds pending batches, so over TCP the
// restored batches must land in the round the next PRS drains.
func TestCheckpointRestoreIdenticalResult(t *testing.T) {
	g := ringGraph(30)
	for _, net := range []transport.Network{transport.InProcess, transport.TCPLoopback} {
		t.Run(net.String(), func(t *testing.T) {
			dir := t.TempDir()
			e1, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
				Cluster:         cluster.Flat(2, 2),
				Network:         net,
				CheckpointDir:   dir,
				CheckpointEvery: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e1.Close()
			if _, err := e1.Run(); err != nil {
				t.Fatal(err)
			}
			snap, err := checkpoint.Load[State[float64, float64]](dir, 7)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Step != 7 {
				t.Fatalf("checkpoint at step %d, want 7", snap.Step)
			}
			if len(snap.Pending) == 0 {
				t.Fatal("checkpoint holds no pending batches: nothing to re-send on restore")
			}

			// Fresh engine, restore mid-run state, continue: must agree with e1.
			e2, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
				Cluster: cluster.Flat(2, 2),
				Network: net,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if err := e2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if e2.Superstep() != 7 {
				t.Fatalf("restored superstep = %d", e2.Superstep())
			}
			if _, err := e2.Run(); err != nil {
				t.Fatal(err)
			}
			for v := range e1.Values() {
				if math.Float64bits(e1.Values()[v]) != math.Float64bits(e2.Values()[v]) {
					t.Fatalf("vertex %d: %g vs %g after restore", v, e1.Values()[v], e2.Values()[v])
				}
			}
		})
	}
}

func TestRestoreShapeMismatch(t *testing.T) {
	e, _ := New[float64, float64](ringGraph(5), maxProg{}, Config[float64, float64]{})
	err := e.Restore(State[float64, float64]{Step: 1, Values: make([]float64, 99), Halted: make([]bool, 99)})
	if err == nil {
		t.Fatal("mismatched checkpoint must be rejected")
	}
	// Pending messages must be deliverable where the checkpoint queues them:
	// to a vertex that exists, on the worker that owns it.
	owner := e.Assignment().Of[0]
	for _, p := range []PendingBatch[float64]{
		{To: owner, Batch: []envelope[float64]{{Dst: 99}}},
		{To: 1 - owner, Batch: []envelope[float64]{{Dst: 0}}},
	} {
		bad := State[float64, float64]{Values: make([]float64, 5), Halted: make([]bool, 5), Pending: []PendingBatch[float64]{p}}
		if e.Restore(bad) == nil {
			t.Errorf("pending batch %+v must be rejected", p)
		}
	}
}

func TestTraceBookkeeping(t *testing.T) {
	g := ringGraph(16)
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(2, 2),
	})
	trace, _ := e.Run()
	if trace.Engine != "hama" || trace.Workers != 4 {
		t.Fatalf("trace header = %+v", trace)
	}
	if trace.Steps[0].Active != 16 {
		t.Fatalf("step 0 active = %d, want all 16", trace.Steps[0].Active)
	}
	if trace.ModelTime() <= 0 {
		t.Fatal("model time must be positive")
	}
	if trace.Steps[0].ComputeUnitsMax <= 0 {
		t.Fatal("compute units must be recorded")
	}
}
