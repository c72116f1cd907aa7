package cyclops

import (
	"math"
	"testing"
	"testing/quick"

	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
)

// maxProg converges every vertex to the maximum vertex id among its
// ancestors (pull-mode max propagation over the immutable view).
type maxProg struct{}

func (maxProg) Init(id graph.ID, _ *graph.Graph) (float64, float64, bool) {
	return float64(id), float64(id), true
}

func (maxProg) Compute(ctx *Context[float64, float64]) {
	view, srcs, _ := ctx.In()
	best := ctx.Value()
	for _, s := range srcs {
		if m := view[s]; m > best {
			best = m
		}
	}
	if best > ctx.Value() {
		ctx.SetValue(best)
		ctx.Publish(best, true)
	} else if ctx.Superstep() == 0 {
		ctx.Publish(best, true) // announce once so successors see us
	}
}

func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.ID(v), graph.ID((v+1)%n))
	}
	return b.MustBuild()
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddWeightedEdge(graph.ID(v), graph.ID(v+1), 1)
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
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for v, val := range e.Values() {
		if val != 39 {
			t.Fatalf("vertex %d = %g, want 39", v, val)
		}
	}
}

func TestMaxPropagationMTEquivalence(t *testing.T) {
	g := gen.PowerLaw(500, 4, 11)
	configs := []cluster.Config{
		cluster.Flat(1, 1),
		cluster.Flat(3, 2),
		cluster.MT(3, 4, 2),
	}
	var want []float64
	for i, cc := range configs {
		e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{Cluster: cc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		got := e.Values()
		if i == 0 {
			want = got
			continue
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("config %v: vertex %d = %g, want %g", cc, v, got[v], want[v])
			}
		}
	}
}

func TestEngineNameReflectsHierarchy(t *testing.T) {
	g := ringGraph(8)
	flat, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{Cluster: cluster.Flat(2, 2)})
	mt, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{Cluster: cluster.MT(2, 4, 2)})
	if flat.Trace().Engine != "cyclops" {
		t.Errorf("flat engine name = %q", flat.Trace().Engine)
	}
	if mt.Trace().Engine != "cyclopsmt" {
		t.Errorf("mt engine name = %q", mt.Trace().Engine)
	}
}

func TestReplicaWiringSmallGraph(t *testing.T) {
	// Vertices 0,1 on worker 0; 2,3 on worker 1 (range partition).
	// Edges: 0→2 (spanning), 2→1 (spanning), 0→1 (local), 3→2 (local).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(2, 1)
	b.AddEdge(0, 1)
	b.AddEdge(3, 2)
	g := b.MustBuild()
	e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster:     cluster.Flat(2, 1),
		Partitioner: partition.Range{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 has a spanning out-edge to worker 1 → one replica on 1.
	if got := e.ReplicaWorkers(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("replicas of 0 = %v, want [1]", got)
	}
	// Vertex 2 has a spanning out-edge to worker 0 → one replica on 0.
	if got := e.ReplicaWorkers(2); len(got) != 1 || got[0] != 0 {
		t.Errorf("replicas of 2 = %v, want [0]", got)
	}
	// Vertices 1 and 3 have no spanning out-edges → no replicas.
	if got := e.ReplicaWorkers(1); len(got) != 0 {
		t.Errorf("replicas of 1 = %v, want none", got)
	}
	if got := e.ReplicaWorkers(3); len(got) != 0 {
		t.Errorf("replicas of 3 = %v, want none", got)
	}
	if e.Ingress().Replicas != 2 {
		t.Errorf("total replicas = %d, want 2", e.Ingress().Replicas)
	}
}

// Property: the engine's realised replica count must equal the partition
// package's independent ReplicationFactor computation.
func TestReplicationFactorMatchesPartitionMetric(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%6 + 2
		g := gen.PowerLaw(300, 4, seed)
		e, err := New[float64, float64](g, maxProg{}, Config[float64, float64]{
			Cluster: cluster.Flat(k, 1),
		})
		if err != nil {
			return false
		}
		want := e.Assignment().ReplicationFactor(g)
		got := e.ReplicationFactor()
		return math.Abs(want-got) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// lagProg checks immutable-view semantics: each vertex publishes the current
// superstep number; neighbors must read exactly the previous superstep's
// publication (never the current one).
type lagProg struct {
	t *testing.T
}

func (p lagProg) Init(id graph.ID, _ *graph.Graph) (float64, float64, bool) {
	return -1, -1, true
}

func (p lagProg) Compute(ctx *Context[float64, float64]) {
	step := float64(ctx.Superstep())
	view, srcs, _ := ctx.In()
	for _, s := range srcs {
		if got := view[s]; got != step-1 {
			p.t.Errorf("step %g: neighbor view = %g, want %g", step, got, step-1)
		}
	}
	ctx.Publish(step, true)
}

func TestImmutableViewLagsExactlyOneSuperstep(t *testing.T) {
	// Complete-ish graph over 3 workers so local and remote neighbors mix.
	b := graph.NewBuilder(9)
	for u := 0; u < 9; u++ {
		for v := 0; v < 9; v++ {
			if u != v {
				b.AddEdge(graph.ID(u), graph.ID(v))
			}
		}
	}
	g := b.MustBuild()
	e, err := New[float64, float64](g, lagProg{t}, Config[float64, float64]{
		Cluster:       cluster.Flat(3, 1),
		MaxSupersteps: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestImmutableViewLagsMT(t *testing.T) {
	b := graph.NewBuilder(12)
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			if u != v {
				b.AddEdge(graph.ID(u), graph.ID(v))
			}
		}
	}
	g := b.MustBuild()
	e, err := New[float64, float64](g, lagProg{t}, Config[float64, float64]{
		Cluster:       cluster.MT(3, 4, 2),
		MaxSupersteps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// distProg is pull-mode SSSP over the view.
type distProg struct{}

func (distProg) Init(id graph.ID, _ *graph.Graph) (float64, float64, bool) {
	if id == 0 {
		return 0, 0, true
	}
	return math.Inf(1), math.Inf(1), false
}

func (distProg) Compute(ctx *Context[float64, float64]) {
	view, srcs, weights := ctx.In()
	best := ctx.Value()
	for i, s := range srcs {
		if d := view[s] + weights[i]; d < best {
			best = d
		}
	}
	if best < ctx.Value() {
		ctx.SetValue(best)
		ctx.Publish(best, true)
	} else if ctx.Superstep() == 0 && ctx.Vertex() == 0 {
		ctx.Publish(0, true)
	}
}

func TestDistancePropagationAndActivation(t *testing.T) {
	const n = 25
	g := pathGraph(n)
	e, err := New[float64, float64](g, distProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(4, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range e.Values() {
		if d != float64(v) {
			t.Fatalf("dist[%d] = %g, want %d", v, d, v)
		}
	}
	// Push-mode dynamic computation: only the wavefront computes, so total
	// active vertex-steps should be ≈ n + n (source announce + one per hop),
	// far below n per superstep.
	var activeTotal int64
	for _, s := range trace.Steps {
		activeTotal += s.Active
	}
	if activeTotal > int64(3*n) {
		t.Errorf("active vertex-steps = %d; dynamic activation is broken", activeTotal)
	}
}

func TestMessageCountOnePerReplicaPerChange(t *testing.T) {
	// Star: hub 0 → spokes on 3 other workers. One publish by the hub must
	// produce exactly (#replica workers) messages.
	b := graph.NewBuilder(13)
	for v := 1; v < 13; v++ {
		b.AddEdge(0, graph.ID(v))
	}
	g := b.MustBuild()
	e, err := New[float64, float64](g, distProg{}, Config[float64, float64]{
		Cluster:     cluster.Flat(4, 1),
		Partitioner: partition.Hash{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	replicas := int64(len(e.ReplicaWorkers(0)))
	msgs := e.TransportStats().Messages
	// The hub publishes once (step 0); spokes change once but have no
	// replicas (no out-edges) — so total messages == hub's replica count.
	if msgs != replicas {
		t.Fatalf("messages = %d, want %d (one per replica)", msgs, replicas)
	}
}

// republishProg publishes the same constant every superstep; with Equal set,
// all republications after the first must be suppressed.
type republishProg struct{}

func (republishProg) Init(id graph.ID, _ *graph.Graph) (float64, float64, bool) {
	return 7, 0, true
}

func (republishProg) Compute(ctx *Context[float64, float64]) {
	ctx.Publish(7, false)
	if ctx.Superstep() < 3 {
		ctx.Publish(7, false)
	}
	// Keep ourselves alive via in-neighbors: nothing to do, rely on
	// MaxSupersteps; vertices deactivate (no activation requested).
}

func TestUnchangedRepublishSuppressed(t *testing.T) {
	g := ringGraph(10)
	e, err := New[float64, float64](g, republishProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(2, 1),
		MaxSupersteps: 4,
		Equal:         func(a, b float64) bool { return a == b },
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Step 0: view goes 0→7, so messages flow. No activation was requested,
	// so everything deactivates and the run stops after step 0.
	if len(trace.Steps) != 1 {
		t.Fatalf("steps = %d, want 1 (no activation)", len(trace.Steps))
	}
	if trace.Steps[0].Messages == 0 {
		t.Fatal("first publish must sync replicas")
	}
}

// aggSumProg exercises aggregators across workers and threads.
type aggSumProg struct{}

func (aggSumProg) Init(id graph.ID, _ *graph.Graph) (float64, float64, bool) {
	return float64(id), float64(id), true
}

func (aggSumProg) Compute(ctx *Context[float64, float64]) {
	ctx.Aggregate("ids", float64(ctx.Vertex()))
	ctx.Publish(ctx.Value(), ctx.Superstep() == 0) // two steps total
}

func TestAggregatorAcrossThreads(t *testing.T) {
	g := ringGraph(20)
	var got float64 = -1
	e, err := New[float64, float64](g, aggSumProg{}, Config[float64, float64]{
		Cluster:       cluster.MT(2, 3, 2),
		MaxSupersteps: 3,
		OnStep: func(step int, e *Engine[float64, float64]) {
			if step == 0 {
				got, _ = e.Aggregates().Value("ids")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 190 { // Σ 0..19
		t.Fatalf("aggregate = %g, want 190", got)
	}
}

func TestHaltFuncStops(t *testing.T) {
	g := ringGraph(30)
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(2, 1),
		Halt:    func(step int, _ func(string) (float64, bool), _ int64) bool { return step >= 2 },
	})
	trace, _ := e.Run()
	if len(trace.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(trace.Steps))
	}
}

func TestCheckpointRestore(t *testing.T) {
	g := ringGraph(32)
	dir := t.TempDir()
	e1, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster:         cluster.Flat(2, 2),
		CheckpointDir:   dir,
		CheckpointEvery: 5,
	})
	if _, err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load[State[float64, float64]](dir, 5)
	if err != nil || snap.Step != 5 {
		t.Fatalf("checkpoint: step=%d err=%v", snap.Step, err)
	}
	e2, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(2, 2),
	})
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	v1, v2 := e1.Values(), e2.Values()
	for v := range v1 {
		if v1[v] != v2[v] {
			t.Fatalf("vertex %d: %g vs %g", v, v1[v], v2[v])
		}
	}
}

func TestRestoreRejectsWrongShape(t *testing.T) {
	e, _ := New[float64, float64](ringGraph(5), maxProg{}, Config[float64, float64]{})
	bad := State[float64, float64]{Step: 1, Values: make([]float64, 3), View: make([]float64, 3), Active: make([]bool, 3)}
	if err := e.Restore(bad); err == nil {
		t.Fatal("wrong-shape restore must fail")
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

func TestMTReducesReplicasVsFlat(t *testing.T) {
	// Fig 9/Table 2 story: 6 machines × 8 workers needs far more replicas
	// than 6 machines × 1 worker × 8 threads, because replicas are
	// per-worker.
	g := gen.PowerLaw(2000, 6, 21)
	flat, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{Cluster: cluster.Flat(6, 8)})
	mt, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{Cluster: cluster.MT(6, 8, 2)})
	if mt.Ingress().Replicas >= flat.Ingress().Replicas {
		t.Fatalf("MT replicas %d !< flat replicas %d",
			mt.Ingress().Replicas, flat.Ingress().Replicas)
	}
}

func TestViewOfAndWorkerLookups(t *testing.T) {
	g := ringGraph(10)
	e, _ := New[float64, float64](g, maxProg{}, Config[float64, float64]{Cluster: cluster.Flat(2, 1)})
	if got := e.ViewOf(3); got != 3 {
		t.Fatalf("ViewOf(3) = %g before run", got)
	}
	if w := e.MasterWorker(3); w != e.Assignment().Of[3] {
		t.Fatal("MasterWorker disagrees with assignment")
	}
}
