package cyclops

import (
	"math"
	"testing"
	"testing/quick"

	"cyclops/internal/cluster"
	"cyclops/internal/fault"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

// evolveSSSPRef is Bellman-Ford over an edge list (local copy to avoid an
// import cycle with the algorithms package).
func evolveSSSPRef(edges []graph.Edge, n int, src graph.ID) []float64 {
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range edges {
			if d := dist[e.Src] + e.Weight; d < dist[e.Dst] {
				dist[e.Dst] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func runSSSP(t *testing.T, g *graph.Graph) *Engine[float64, float64] {
	t.Helper()
	e, err := New[float64, float64](g, distProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(3, 1),
		MaxSupersteps: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEvolveShortcutsUpdateDistances also runs the evolved epoch under the
// auditor: Evolve's transfer must leave every replica equal to its master
// before the first superstep, and every superstep after it.
func TestEvolveShortcutsUpdateDistances(t *testing.T) {
	// A long path 0→1→…→19, then a shortcut 0→15 appears.
	const n = 20
	for _, c := range []cluster.Config{cluster.Flat(3, 1), cluster.MT(2, 2, 2)} {
		t.Run(c.String(), func(t *testing.T) {
			g := pathGraph(n)
			e, err := New[float64, float64](g, distProg{}, Config[float64, float64]{
				Cluster: c, MaxSupersteps: 2000, Audit: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := e.Values()[15]; got != 15 {
				t.Fatalf("pre-evolve dist[15] = %g", got)
			}

			added := []graph.Edge{{Src: 0, Dst: 15, Weight: 2}}
			next, err := e.Evolve(added)
			if err != nil {
				t.Fatal(err)
			}
			if vs := next.auditViewConsistency(); len(vs) != 0 {
				t.Fatalf("replicas diverge right after Evolve: %v", vs)
			}
			if _, err := next.Run(); err != nil {
				t.Fatal(err)
			}
			want := evolveSSSPRef(append(g.Edges(), added...), n, 0)
			got := next.Values()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("dist[%d] = %g, want %g", v, got[v], want[v])
				}
			}
			if got[15] != 2 || got[19] != 6 {
				t.Fatalf("shortcut not applied: dist[15]=%g dist[19]=%g", got[15], got[19])
			}
		})
	}
}

// TestEvolveRecoversInItsOwnEpoch: an evolved engine keeps the checkpoint
// directory, but its superstep counter restarts at 0. A fault in the new
// epoch must roll back to that epoch's baseline, not to the newest file the
// previous epoch left behind.
func TestEvolveRecoversInItsOwnEpoch(t *testing.T) {
	const n = 13
	g := pathGraph(n)
	e, err := New[float64, float64](g, distProg{}, Config[float64, float64]{
		Cluster: cluster.Flat(2, 1), MaxSupersteps: 100,
		CheckpointDir: t.TempDir(), CheckpointEvery: 2,
		FaultPlan: &fault.Plan{Faults: []fault.Fault{{Kind: fault.Crash, Step: 2, Worker: 0, Peer: -1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	added := []graph.Edge{{Src: 0, Dst: 10, Weight: 1}}
	next, err := e.Evolve(added)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Run(); err != nil {
		t.Fatal(err)
	}
	want := evolveSSSPRef(append(g.Edges(), added...), n, 0)
	for v, got := range next.Values() {
		if got != want[v] {
			t.Fatalf("dist[%d] = %g, want %g", v, got, want[v])
		}
	}
}

// TestEvolveActivatesEndpointsAcrossFrontierWords adds two shortcuts whose four
// endpoints sit in four different 64-slot words of their workers' frontiers
// (600 vertices over 3 hash-partitioned workers: 200 master slots each).
func TestEvolveActivatesEndpointsAcrossFrontierWords(t *testing.T) {
	const n = 600
	g := pathGraph(n)
	e := runSSSP(t, g)
	added := []graph.Edge{{Src: 0, Dst: 399, Weight: 2}, {Src: 210, Dst: 597, Weight: 3}}
	slots := map[int32]bool{}
	for _, edge := range added {
		slots[e.layout.Slot[edge.Src]>>6] = true
		slots[e.layout.Slot[edge.Dst]>>6] = true
	}
	if len(slots) != 4 {
		t.Fatalf("endpoints fall in %d frontier words, want 4", len(slots))
	}
	next, err := e.Evolve(added)
	if err != nil {
		t.Fatal(err)
	}
	for _, edge := range added {
		for _, id := range []graph.ID{edge.Src, edge.Dst} {
			if !next.ws[next.assign.Of[id]].frontier.Has(int(next.layout.Slot[id])) {
				t.Fatalf("endpoint %d not activated by Evolve", id)
			}
		}
	}
	if _, err := next.Run(); err != nil {
		t.Fatal(err)
	}
	want := evolveSSSPRef(append(g.Edges(), added...), n, 0)
	for v, got := range next.Values() {
		if got != want[v] {
			t.Fatalf("dist[%d] = %g, want %g", v, got, want[v])
		}
	}
}

func TestEvolveAddsNewVertices(t *testing.T) {
	g := pathGraph(5)
	e := runSSSP(t, g)
	// Grow a new branch through brand-new vertices 5 and 6.
	added := []graph.Edge{
		{Src: 2, Dst: 5, Weight: 1},
		{Src: 5, Dst: 6, Weight: 1},
	}
	next, err := e.Evolve(added)
	if err != nil {
		t.Fatal(err)
	}
	if next.Graph().NumVertices() != 7 {
		t.Fatalf("|V| = %d after growth", next.Graph().NumVertices())
	}
	if _, err := next.Run(); err != nil {
		t.Fatal(err)
	}
	got := next.Values()
	if got[5] != 3 || got[6] != 4 {
		t.Fatalf("new-branch distances = %g, %g", got[5], got[6])
	}
	// Old distances undisturbed.
	for v := 0; v < 5; v++ {
		if got[v] != float64(v) {
			t.Fatalf("old dist[%d] = %g", v, got[v])
		}
	}
}

func TestEvolveChainOfEpochs(t *testing.T) {
	// Grow a path one edge at a time; after each epoch, distances must be
	// exact for the graph so far.
	g := pathGraph(2)
	e := runSSSP(t, g)
	for next := 2; next < 8; next++ {
		grown, err := e.Evolve([]graph.Edge{{Src: graph.ID(next - 1), Dst: graph.ID(next), Weight: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := grown.Run(); err != nil {
			t.Fatal(err)
		}
		got := grown.Values()
		for v := 0; v <= next; v++ {
			if got[v] != float64(v) {
				t.Fatalf("epoch %d: dist[%d] = %g", next, v, got[v])
			}
		}
		e = grown
	}
}

func TestEvolveRejectsEmptyBatch(t *testing.T) {
	e := runSSSP(t, pathGraph(3))
	if _, err := e.Evolve(nil); err == nil {
		t.Fatal("empty mutation batch must be rejected")
	}
}

// Property: evolving in one batch equals building the merged graph fresh and
// running from scratch, for SSSP on random growth batches.
func TestEvolveEquivalentToFreshRun(t *testing.T) {
	f := func(seed int64) bool {
		base := gen.Road(4, 5, 0, seed)
		e := New100(t, base)
		if _, err := e.Run(); err != nil {
			return false
		}
		// Random extra shortcuts (bidirectional, like the road generator).
		rng := seed
		var added []graph.Edge
		for i := 0; i < 3; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			u := graph.ID(uint64(rng) % uint64(base.NumVertices()))
			rng = rng*6364136223846793005 + 1442695040888963407
			v := graph.ID(uint64(rng) % uint64(base.NumVertices()))
			if u == v {
				continue
			}
			added = append(added, graph.Edge{Src: u, Dst: v, Weight: 0.5})
			added = append(added, graph.Edge{Src: v, Dst: u, Weight: 0.5})
		}
		if len(added) == 0 {
			return true
		}
		next, err := e.Evolve(added)
		if err != nil {
			return false
		}
		if _, err := next.Run(); err != nil {
			return false
		}
		want := evolveSSSPRef(append(base.Edges(), added...), base.NumVertices(), 0)
		got := next.Values()
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// New100 builds an SSSP engine with a generous superstep budget.
func New100(t *testing.T, g *graph.Graph) *Engine[float64, float64] {
	t.Helper()
	e, err := New[float64, float64](g, distProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(2, 2),
		MaxSupersteps: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}
