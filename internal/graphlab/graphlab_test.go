package graphlab

import (
	"math"
	"reflect"
	"testing"

	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
)

// hashed is the hash assignment of g over k workers, the one Fig 4 runs under.
func hashed(t *testing.T, g *graph.Graph, k int) *partition.Assignment {
	t.Helper()
	a, err := partition.Hash{}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// budget is the default runaway guard of these tests.
func budget(g *graph.Graph) int64 { return int64(2000 * g.NumVertices()) }

// asyncPR mirrors algorithms.PageRankGraphLab without importing it (that
// package imports this one). Value = rank/outDegree.
type asyncPR struct{ eps float64 }

func outDeg1(g *graph.Graph, id graph.ID) float64 {
	if d := g.OutDegree(id); d > 0 {
		return float64(d)
	}
	return 1
}

func (p asyncPR) Init(id graph.ID, g *graph.Graph) (float64, bool) {
	return (1 / float64(g.NumVertices())) / outDeg1(g, id), true
}

func (p asyncPR) Update(ctx *Scope[float64]) (float64, bool) {
	var sum float64
	for _, u := range ctx.G.InNeighbors(ctx.ID) {
		sum += ctx.Values[u]
	}
	rank := 0.15/float64(ctx.G.NumVertices()) + 0.85*sum
	d := outDeg1(ctx.G, ctx.ID)
	return rank / d, math.Abs(rank-ctx.Values[ctx.ID]*d) > p.eps
}

// refShare is the sequential reference: the synchronous recurrence iterated to
// (near) fixpoint.
func refShare(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	share, next := make([]float64, n), make([]float64, n)
	for v := range share {
		share[v] = (1 / float64(n)) / outDeg1(g, graph.ID(v))
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			var sum float64
			for _, u := range g.InNeighbors(graph.ID(v)) {
				sum += share[u]
			}
			next[v] = (0.15/float64(n) + 0.85*sum) / outDeg1(g, graph.ID(v))
		}
		copy(share, next)
	}
	return share
}

func TestAsyncPageRankConverges(t *testing.T) {
	g := gen.PowerLaw(400, 4, 19)
	// Naive async scheduling re-updates a vertex every time any neighbor
	// moves more than eps, so update counts grow steeply as eps tightens —
	// §2.3's scheduling-overhead complaint in numbers. 1e-8 keeps the test
	// fast while the fixpoint residual stays well under the assertion below.
	e, err := New[float64](g, asyncPR{eps: 1e-8}, hashed(t, g, 4))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(int64(20000 * g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Updates == 0 {
		t.Fatal("no updates ran")
	}
	want := refShare(g, 300)
	var l1 float64
	for v, got := range e.scope.Values {
		l1 += math.Abs(got - want[v])
	}
	if l1 > 1e-4 {
		t.Fatalf("async fixpoint off by L1=%g", l1)
	}
}

// TestCostTable checks the §2.3 bill of every vertex of a 6-vertex graph on 3
// workers against a hand count, then a run's totals against the update order
// the FIFO worklist must take.
func TestCostTable(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.ID{{0, 0}, {0, 1}, {0, 2}, {0, 2}, {0, 3}, {2, 0}, {4, 0}, {1, 5}, {5, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	assign := &partition.Assignment{K: 3, Of: []int{0, 0, 1, 1, 2, 2}}
	trace := &firstActivates{}
	e, err := New[int](g, trace, assign)
	if err != nil {
		t.Fatal(err)
	}
	want := []Stats{
		// 0: scope {2,3 on w1; 4 on w2} beside itself and 1; out-edges 2,2,3 leave w0.
		{LockMessages: 6, SyncMessages: 2, ActivationMsgs: 3},
		{LockMessages: 2, SyncMessages: 1, ActivationMsgs: 1}, // 1: remote 5, out to 5
		{LockMessages: 2, SyncMessages: 1, ActivationMsgs: 1}, // 2: remote 0 (in twice, out once)
		{LockMessages: 2, SyncMessages: 1},                    // 3: remote in-neighbor 0, no out-edge
		{LockMessages: 2, SyncMessages: 1, ActivationMsgs: 1}, // 4: 5 is local, out to 0
		{LockMessages: 2, SyncMessages: 1},                    // 5: remote in-neighbor 1, out to local 4
	}
	if !reflect.DeepEqual(e.bills, want) {
		t.Fatalf("cost table\n got %+v\nwant %+v", e.bills, want)
	}
	if rf := e.ReplicationFactor(); rf != 7.0/6 {
		t.Errorf("replication factor %v, want 7/6", rf)
	}

	// Only vertex 0 starts scheduled and every vertex activates on its first
	// update only: 0 wakes 1,2,3; 1 wakes 5; 2 wakes 0; 5 wakes 4; 4 wakes 0.
	st, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if order := []graph.ID{0, 1, 2, 3, 5, 0, 4, 0}; !reflect.DeepEqual(trace.order, order) {
		t.Fatalf("update order %v, want %v", trace.order, order)
	}
	if want := (Stats{Updates: 8, LockMessages: 28, SyncMessages: 11, ActivationMsgs: 6}); st != want {
		t.Errorf("run totals %+v, want %+v", st, want)
	}
}

// firstActivates counts a vertex's updates in its value, activates on the
// first one, and records the order updates ran in.
type firstActivates struct{ order []graph.ID }

func (*firstActivates) Init(id graph.ID, _ *graph.Graph) (int, bool) { return 0, id == 0 }
func (p *firstActivates) Update(ctx *Scope[int]) (int, bool) {
	p.order = append(p.order, ctx.ID)
	return ctx.Values[ctx.ID] + 1, ctx.Values[ctx.ID] == 0
}

func TestStatsAccounting(t *testing.T) {
	g := gen.PowerLaw(300, 4, 3)
	run := func() Stats {
		e, err := New[float64](g, asyncPR{eps: 1e-6}, hashed(t, g, 4))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run(budget(g))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	stats := run()
	if stats.SyncMessages == 0 || stats.LockMessages == 0 {
		t.Fatalf("distributed run must count sync and lock traffic: %+v", stats)
	}
	if stats.Messages() != stats.SyncMessages+stats.ActivationMsgs+stats.LockMessages {
		t.Fatal("Messages() inconsistent")
	}
	// §2.3: lock traffic alone (2 per remote scope member per update) should
	// rival or exceed the data traffic — the overhead Cyclops removes.
	if stats.LockMessages < stats.SyncMessages {
		t.Fatalf("expected locking to dominate: %+v", stats)
	}
	if again := run(); again != stats {
		t.Fatalf("counts are not a function of the input: %+v then %+v", stats, again)
	}
}

func TestSingleWorkerNoRemoteTraffic(t *testing.T) {
	g := gen.PowerLaw(100, 3, 7)
	e, err := New[float64](g, asyncPR{eps: 1e-6}, hashed(t, g, 1))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(budget(g))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages() != 0 {
		t.Fatalf("single worker must be message-free: %+v", stats)
	}
	if e.ReplicationFactor() != 0 {
		t.Fatal("single worker must have no replicas")
	}
}

func TestDuplicateReplicasExceedCyclops(t *testing.T) {
	// §2.3: GraphLab replicates per spanning edge in both directions, so its
	// replica count must be at least Cyclops' (which replicates only for the
	// out direction) over the same assignment.
	g := gen.PowerLaw(500, 5, 13)
	assign := hashed(t, g, 6)
	e, err := New[float64](g, asyncPR{eps: 1e-6}, assign)
	if err != nil {
		t.Fatal(err)
	}
	if cyclopsRF := assign.ReplicationFactor(g); e.ReplicationFactor() < cyclopsRF {
		t.Fatalf("graphlab rf %.2f < cyclops-style rf %.2f", e.ReplicationFactor(), cyclopsRF)
	}
}

func TestUpdateBudgetGuard(t *testing.T) {
	// A program that always reschedules everyone must hit the budget and
	// return an error instead of running forever.
	g := gen.ErdosRenyi(30, 90, 1)
	e, err := New[float64](g, alwaysActive{}, hashed(t, g, 2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(500)
	if err == nil {
		t.Fatal("non-convergent program must exhaust the budget with an error")
	}
	if stats.Updates != 500 {
		t.Errorf("%d updates ran under a budget of 500", stats.Updates)
	}
}

type alwaysActive struct{}

func (alwaysActive) Init(id graph.ID, _ *graph.Graph) (float64, bool) { return 0, true }
func (alwaysActive) Update(ctx *Scope[float64]) (float64, bool) {
	return ctx.Values[ctx.ID] + 1, true
}

func TestRequiredArguments(t *testing.T) {
	g := gen.ErdosRenyi(5, 5, 1)
	if _, err := New[float64](nil, asyncPR{}, hashed(t, g, 2)); err == nil {
		t.Error("nil graph must error")
	}
	if _, err := New[float64](g, nil, hashed(t, g, 2)); err == nil {
		t.Error("nil program must error")
	}
	if _, err := New[float64](g, asyncPR{}, nil); err == nil {
		t.Error("nil assignment must error")
	}
}

func TestSelfLoopScope(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	e, err := New[float64](g, asyncPR{eps: 1e-9}, hashed(t, g, 2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run(budget(g))
	if err != nil {
		t.Fatal(err)
	}
	// A vertex is never a remote member of its own scope, nor activated by
	// its own self-loop: every charge here is for the 0→1 edge.
	if e.bills[0].LockMessages != 2 || e.bills[0].ActivationMsgs != 1 || st.Updates == 0 {
		t.Errorf("self-loop charged: bill %+v, run %+v", e.bills[0], st)
	}
}
