package cyclops_test

// Differential pin of the activity frontier: the per-superstep (Active,
// Changed, Messages, RedundantMessages) series and the final values of three
// algorithms over random graphs, partitioners and MxWxT/R shapes, hashed into
// one constant per algorithm. The constants were recorded at the commit before
// activity became a bitmap frontier; any change to who is visited, who
// publishes or who is activated — one dropped Activate is enough — moves them.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/fault"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/partition"
)

// pinGraphs returns 12 random symmetric weighted graphs of 30–600 vertices:
// small enough to run 400-odd configurations in a second, large enough that a
// worker's masters span several bitmap words.
func pinGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	graphs := make([]*graph.Graph, 12)
	for i := range graphs {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		n := 30 + rng.Intn(571)
		var edges []graph.Edge
		for e := 0; e < n+rng.Intn(2*n); e++ {
			u, v := graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n))
			w := float64(1 + rng.Intn(9))
			edges = append(edges, graph.Edge{Src: u, Dst: v, Weight: w}, graph.Edge{Src: v, Dst: u, Weight: w})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	return graphs
}

// pinShapes are the (W, T, R) shapes of the pin: flat, two workers, and two
// CyclopsMT shapes whose thread and receiver counts do not divide 64.
var pinShapes = []cluster.Config{
	{Machines: 1, WorkersPerMachine: 1, Threads: 1, Receivers: 1},
	{Machines: 2, WorkersPerMachine: 1, Threads: 1, Receivers: 1},
	{Machines: 3, WorkersPerMachine: 1, Threads: 4, Receivers: 2},
	{Machines: 7, WorkersPerMachine: 1, Threads: 2, Receivers: 3},
}

func hashSeries(h hash.Hash64, tr *metrics.Trace) {
	var buf [8]byte
	for _, s := range tr.Steps {
		for _, x := range [...]int64{s.Active, s.Changed, s.Messages, s.RedundantMessages} {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
	}
}

func hashFloats(h hash.Hash64, vals []float64) {
	var buf [8]byte
	for _, x := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// pinRun runs prog under cfg on every graph × partitioner × shape, checks the
// values with check and returns the hash of every run's series and values.
func pinRun[V, M any](t *testing.T, prog func(*graph.Graph) cyclops.Program[V, M], cfg cyclops.Config[V, M],
	floats func([]V) []float64, check func(g *graph.Graph, got []float64)) uint64 {
	t.Helper()
	h := fnv.New64a()
	parts := []partition.Partitioner{partition.Hash{}, partition.Range{}, partition.Multilevel{}}
	for _, g := range pinGraphs(t) {
		for _, part := range parts {
			for _, shape := range pinShapes {
				c := cfg
				c.Cluster, c.Partitioner, c.MaxSupersteps = shape, part, 200
				e, err := cyclops.New[V, M](g, prog(g), c)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				vals := floats(e.Values())
				check(g, vals)
				hashSeries(h, tr)
				hashFloats(h, vals)
				e.Close()
			}
		}
	}
	return h.Sum64()
}

func identity(v []float64) []float64 { return v }

func TestFrontierSeriesPinned(t *testing.T) {
	t.Run("SSSP", func(t *testing.T) {
		got := pinRun(t, func(*graph.Graph) cyclops.Program[float64, float64] { return algorithms.SSSPCyclops{Source: 0} },
			cyclops.Config[float64, float64]{}, identity,
			func(g *graph.Graph, got []float64) {
				for v, want := range algorithms.SSSPRef(g, 0) {
					if got[v] != want {
						t.Fatalf("SSSP vertex %d = %g, want %g", v, got[v], want)
					}
				}
			})
		if want := uint64(pinSSSP); got != want {
			t.Errorf("SSSP series+values hash = %#x, pinned %#x", got, want)
		}
	})
	t.Run("CC", func(t *testing.T) {
		got := pinRun(t, func(*graph.Graph) cyclops.Program[int64, int64] { return algorithms.CCCyclops{} },
			cyclops.Config[int64, int64]{},
			func(labels []int64) []float64 {
				out := make([]float64, len(labels))
				for i, l := range labels {
					out[i] = float64(l)
				}
				return out
			},
			func(g *graph.Graph, got []float64) {
				for v, want := range algorithms.CCRef(g) {
					if got[v] != float64(want) {
						t.Fatalf("CC vertex %d = %g, want %d", v, got[v], want)
					}
				}
			})
		if want := uint64(pinCC); got != want {
			t.Errorf("CC series+values hash = %#x, pinned %#x", got, want)
		}
	})
	t.Run("PageRank", func(t *testing.T) {
		const eps = 1e-7
		got := pinRun(t, func(*graph.Graph) cyclops.Program[float64, float64] { return algorithms.PageRankCyclops{Eps: eps} },
			cyclops.Config[float64, float64]{Equal: func(a, b float64) bool { return math.Abs(a-b) < eps }}, identity,
			func(g *graph.Graph, got []float64) {
				// Local convergence at eps stops each vertex early; the fixed
				// 200-iteration reference is the fixpoint it stops near.
				for v, want := range algorithms.PageRankRef(g, 200) {
					if math.Abs(got[v]-want) > 1e-4 {
						t.Fatalf("PageRank vertex %d = %g, want %g", v, got[v], want)
					}
				}
			})
		if want := uint64(pinPageRank); got != want {
			t.Errorf("PageRank series+values hash = %#x, pinned %#x", got, want)
		}
	})
}

// Recorded at the parent commit (per-slot []uint32 activation flags).
const (
	pinSSSP     = 0xb8ffb29f5a2a6517
	pinCC       = 0x641dd5ebabe3190c
	pinPageRank = 0x9ec0dccf3994abf4
)

// lastPerStep reduces a trace that replayed supersteps after a recovery to the
// surviving series: the last record of every superstep.
func lastPerStep(tr *metrics.Trace) []metrics.StepStats {
	var out []metrics.StepStats
	for _, s := range tr.Steps {
		out = append(out[:min(s.Step, len(out))], s)
	}
	return out
}

// TestRestoreMidFrontier crashes a worker in the middle of the lattice's SSSP
// wave, two supersteps after a checkpoint taken with a non-empty frontier:
// the restored frontier must replay into exactly the uninterrupted series.
func TestRestoreMidFrontier(t *testing.T) {
	g := gen.Road(16, 64, 0, 7)
	cfg := cyclops.Config[float64, float64]{
		Cluster: cluster.Flat(2, 1), Partitioner: partition.Multilevel{}, MaxSupersteps: 2000,
	}
	clean, err := cyclops.New[float64, float64](g, algorithms.SSSPCyclops{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleanTrace, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg.CheckpointDir, cfg.CheckpointEvery = dir, 5
	cfg.FaultPlan = &fault.Plan{Faults: []fault.Fault{{Kind: fault.Crash, Step: 12, Worker: 0, Peer: -1}}}
	faulted, err := cyclops.New[float64, float64](g, algorithms.SSSPCyclops{Source: 0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faultedTrace, err := faulted.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(faultedTrace.Steps) != len(cleanTrace.Steps)+3 {
		t.Fatalf("faulted run took %d supersteps, want %d + 3 replayed", len(faultedTrace.Steps), len(cleanTrace.Steps))
	}
	// The 3 replayed supersteps rolled back to the step-10 checkpoint, taken
	// mid-wave.
	snap, err := checkpoint.Load[cyclops.State[float64, float64]](dir, 10)
	if err != nil || !slices.Contains(snap.Active, true) {
		t.Fatalf("step-10 checkpoint: %v, active %v", err, snap.Active)
	}
	h1, h2 := fnv.New64a(), fnv.New64a()
	hashSeries(h1, cleanTrace)
	hashSeries(h2, &metrics.Trace{Steps: lastPerStep(faultedTrace)})
	hashFloats(h1, clean.Values())
	hashFloats(h2, faulted.Values())
	if h1.Sum64() != h2.Sum64() {
		t.Fatalf("recovered series+values hash %#x, uninterrupted %#x", h2.Sum64(), h1.Sum64())
	}
}
