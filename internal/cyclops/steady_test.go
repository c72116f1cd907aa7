package cyclops_test

// The steady-frontier shortcut (DESIGN.md §4.3) replaces a superstep's
// activation walks with next := current when every computed master activated
// in this superstep and the last, and no frontier changed at the barrier in
// between. These tests drive each of the three conditions, and the reset a
// Restore must make, to the point where skipping it changes the series.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
)

// steadyProg runs over a→b, a→c, c→a, b→d (a..d = 0..3), seeded with {a, c}.
// Every computing vertex ORs its superstep into a bitmask and publishes it
// with activation, except b in supersteps 2 and 3, which publishes without,
// and everyone from superstep 7, which publishes nothing.
type steadyProg struct{}

func (steadyProg) Init(id graph.ID, _ *graph.Graph) (int64, int64, bool) {
	return 0, 0, id == 0 || id == 2
}

func (steadyProg) Compute(ctx *cyclops.Context[int64, int64]) {
	step := ctx.Superstep()
	mask := ctx.Value() | 1<<step
	ctx.SetValue(mask)
	switch {
	case step >= 7:
	case ctx.Vertex() == 1 && (step == 2 || step == 3):
		ctx.Publish(mask, false)
	default:
		ctx.Publish(mask, true)
	}
}

func activeSeries(steps []metrics.StepStats) []int64 {
	var out []int64
	for _, s := range steps {
		out = append(out, s.Active)
	}
	return out
}

// TestSteadyFrontierShortcut: by hand, the current sets are
//
//	0 {a,c}      all activate            → {a,b,c}
//	1 {a,b,c}    all activate, set grew  → {a,b,c,d}  (no "unchanged": next = current drops d)
//	2 {a,b,c,d}  b quiet                 → {a,b,c}
//	3 {a,b,c}    b quiet                 → {a,b,c}
//	4 {a,b,c}    all, set kept, 3 wasn't → {a,b,c,d}  (no "full last": drops d)
//	5 {a,b,c,d}  all activate            → {a,b,c,d}
//	6 {a,b,c,d}  steady                  → {a,b,c,d}
//	7 {a,b,c,d}  nobody activates        → {}         (no "full now": never ends)
func TestSteadyFrontierShortcut(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 0)
	b.AddEdge(1, 3)
	g := b.MustBuild()
	wantActive := []int64{2, 3, 4, 3, 3, 4, 4, 4}
	wantMasks := []int64{0xFF, 0xFE, 0xFF, 0b1110_0100}
	shapes := []cluster.Config{
		cluster.Flat(1, 1), cluster.Flat(2, 1), cluster.Flat(4, 1),
		{Machines: 2, WorkersPerMachine: 1, Threads: 2, Receivers: 2},
	}
	for _, shape := range shapes {
		for _, part := range []partition.Partitioner{partition.Hash{}, partition.Range{}} {
			e, err := cyclops.New[int64, int64](g, steadyProg{}, cyclops.Config[int64, int64]{
				Cluster: shape, Partitioner: part, MaxSupersteps: 20, Audit: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := activeSeries(tr.Steps); !slices.Equal(got, wantActive) {
				t.Errorf("%v %s: Active per superstep %v, want %v", shape, part.Name(), got, wantActive)
			}
			if got := e.Values(); !slices.Equal(got, wantMasks) {
				t.Errorf("%v %s: superstep masks %#x, want %#x", shape, part.Name(), got, wantMasks)
			}
			e.Close()
		}
	}
}

// TestRecoveryAfterSteadyFrontier: PageRank over a five-vertex chain feeding a
// three-cycle loses one chain vertex per superstep until superstep 5 and is
// steady from superstep 6. The crash at 9 rolls back to superstep 2 (the
// newer checkpoints are pruned before recovery looks), where
// the frontier still shrinks: a decision carried over from superstep 9 would
// replay superstep 2 with next = current.
// pruneAt deletes, as superstep step starts, every checkpoint in dir newer
// than superstep keep, so a fault planted at step rolls back to keep.
type pruneAt struct {
	obs.Nop
	t          *testing.T
	dir        string
	step, keep int
}

func (p pruneAt) OnSuperstepStart(step int) {
	if step != p.step {
		return
	}
	steps, err := checkpoint.Steps(p.dir)
	if err != nil {
		p.t.Fatal(err)
	}
	for _, s := range steps {
		if s > p.keep {
			if err := os.Remove(filepath.Join(p.dir, fmt.Sprintf("step-%06d.ckpt", s))); err != nil {
				p.t.Fatal(err)
			}
		}
	}
}

func TestRecoveryAfterSteadyFrontier(t *testing.T) {
	b := graph.NewBuilder(8)
	for v := 0; v < 7; v++ {
		b.AddEdge(graph.ID(v), graph.ID(v+1))
	}
	b.AddEdge(7, 5)
	g := b.MustBuild()
	wantActive := []int64{8, 7, 6, 5, 4, 3, 3, 3, 3, 3, 3, 3}
	for _, shape := range []cluster.Config{cluster.Flat(2, 1), {Machines: 2, WorkersPerMachine: 1, Threads: 2, Receivers: 2}} {
		cfg := cyclops.Config[float64, float64]{Cluster: shape, Partitioner: partition.Hash{}, MaxSupersteps: len(wantActive)}
		clean, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cleanTrace, err := clean.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := activeSeries(cleanTrace.Steps); !slices.Equal(got, wantActive) {
			t.Fatalf("%v: uninterrupted Active per superstep %v, want %v", shape, got, wantActive)
		}

		dir := t.TempDir()
		cfg.CheckpointDir, cfg.CheckpointEvery = dir, 2
		cfg.Hooks = pruneAt{t: t, dir: dir, step: 9, keep: 2}
		cfg.FaultPlan = &fault.Plan{Faults: []fault.Fault{{Kind: fault.Crash, Step: 9, Worker: 0, Peer: -1}}}
		faulted, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		faultedTrace, err := faulted.Run()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(faultedTrace.Steps); n != len(wantActive)+8 {
			t.Fatalf("%v: faulted run took %d supersteps, want %d + 8 replayed", shape, n, len(wantActive))
		}
		if got := activeSeries(lastPerStep(faultedTrace)); !slices.Equal(got, wantActive) {
			t.Errorf("%v: recovered Active per superstep %v, want %v", shape, got, wantActive)
		}
		if got, want := faulted.Values(), clean.Values(); !slices.Equal(got, want) {
			t.Errorf("%v: recovered values %v, uninterrupted %v", shape, got, want)
		}
		clean.Close()
		faulted.Close()
	}
}
