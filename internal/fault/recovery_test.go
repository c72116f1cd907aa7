package fault_test

// End-to-end recovery tests: kill a worker at superstep k, recover from the
// latest barrier checkpoint, and require the recovered run's final vertex
// values to equal the fault-free in-process run bit-for-bit on every engine
// (§3.6), with the faulted run on both networks: in process and over
// loopback TCP.
//
// CHAOS_SEED varies the seeded chaos plan: CI's chaos matrix sets it per job,
// and replaying a red seed locally is `CHAOS_SEED=n go test ./internal/fault/`.

import (
	"math"
	"os"
	"strconv"
	"testing"

	"cyclops/internal/aggregate"
	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/fault"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/obs"
	"cyclops/internal/transport"
)

const (
	recoveryEps   = 1e-8
	recoverySteps = 100
)

// chaosSeed reads the CI chaos matrix's seed; unset means 1.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", s, err)
	}
	return n
}

func chaosGraph() *graph.Graph {
	return gen.PowerLaw(400, 5, 3)
}

// killPlan crashes worker 0 at superstep k and nothing else.
func killPlan(k int) fault.Plan {
	return fault.Plan{Seed: int64(k), Faults: []fault.Fault{
		{Kind: fault.Crash, Step: k, Worker: 0, Peer: -1},
	}}
}

// recoveryCounter counts the recoveries the run's records carry so tests can
// assert the fault actually fired and was recovered from, not silently
// skipped.
type recoveryCounter struct {
	obs.Nop
	recoveries int
}

func (r *recoveryCounter) OnSuperstep(rec *obs.StepRecord) {
	if rec.Recovery != nil {
		r.recoveries++
	}
}

func requireEqualValues(t *testing.T, base, got []float64) {
	t.Helper()
	if len(base) != len(got) {
		t.Fatalf("value lengths differ: %d vs %d", len(base), len(got))
	}
	for v := range base {
		if math.Float64bits(base[v]) != math.Float64bits(got[v]) {
			t.Fatalf("vertex %d diverged after recovery: %g vs %g", v, base[v], got[v])
		}
	}
}

// Each runXxx runs PageRank on the engine under cluster shape cc over net;
// with a nil plan it is the fault-free baseline, otherwise the plan is
// injected and the engine checkpoints into a fresh directory every 2
// supersteps (after its own step-0 baseline) and recovers from the latest
// checkpoint.

func runCyclops(t *testing.T, g *graph.Graph, cc cluster.Config, net transport.Network, plan *fault.Plan, rec *recoveryCounter) []float64 {
	t.Helper()
	cfg := cyclops.Config[float64, float64]{
		Cluster: cc, Network: net, MaxSupersteps: recoverySteps,
		Equal: func(a, b float64) bool { return math.Abs(a-b) < recoveryEps },
	}
	if plan != nil {
		cfg.FaultPlan, cfg.CheckpointDir, cfg.CheckpointEvery, cfg.Hooks = plan, t.TempDir(), 2, rec
	}
	e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: recoveryEps}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Values()
}

func runBSP(t *testing.T, g *graph.Graph, cc cluster.Config, net transport.Network, plan *fault.Plan, rec *recoveryCounter) []float64 {
	t.Helper()
	cfg := bsp.Config[float64, float64]{
		Cluster: cc, Network: net, MaxSupersteps: recoverySteps,
		Halt:  aggregate.GlobalErrorHalt(algorithms.ErrorAggregator, g.NumVertices(), recoveryEps),
		Equal: func(a, b float64) bool { return math.Abs(a-b) < recoveryEps },
	}
	if plan != nil {
		cfg.FaultPlan, cfg.CheckpointDir, cfg.CheckpointEvery, cfg.Hooks = plan, t.TempDir(), 2, rec
	}
	e, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{Eps: recoveryEps}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Values()
}

func runGAS(t *testing.T, g *graph.Graph, cc cluster.Config, net transport.Network, plan *fault.Plan, rec *recoveryCounter) []float64 {
	t.Helper()
	cfg := gas.Config[algorithms.PRValue, float64]{
		Cluster: cc, Network: net, Partitioner: gas.RandomVertexCut{},
		MaxSupersteps: recoverySteps, ValCodec: algorithms.PRValueCodec{},
	}
	if plan != nil {
		cfg.FaultPlan, cfg.CheckpointDir, cfg.CheckpointEvery, cfg.Hooks = plan, t.TempDir(), 2, rec
	}
	e, err := gas.New[algorithms.PRValue, float64](g,
		algorithms.NewPageRankGAS(g, recoverySteps, recoveryEps), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return algorithms.Ranks(e.Values())
}

type engine struct {
	name string
	cc   cluster.Config
	run  func(*testing.T, *graph.Graph, cluster.Config, transport.Network, *fault.Plan, *recoveryCounter) []float64
}

// networks are the faulted runs' networks; the baseline runs in process.
var networks = []transport.Network{transport.InProcess, transport.TCPLoopback}

var engines = []engine{
	{"cyclops", cluster.Flat(2, 2), runCyclops},
	{"bsp", cluster.Flat(2, 2), runBSP},
	{"gas", cluster.Flat(2, 2), runGAS},
}

func TestKillAtStepKRecoversExactly(t *testing.T) {
	g := chaosGraph()
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			base := eng.run(t, g, eng.cc, transport.InProcess, nil, nil)
			for _, k := range []int{1, 2, 3} {
				t.Run("k="+strconv.Itoa(k), func(t *testing.T) {
					for _, net := range networks {
						t.Run(net.String(), func(t *testing.T) {
							plan := killPlan(k)
							rec := &recoveryCounter{}
							got := eng.run(t, g, eng.cc, net, &plan, rec)
							if rec.recoveries == 0 {
								t.Fatal("crash never fired: recovery path untested")
							}
							requireEqualValues(t, base, got)
						})
					}
				})
			}
		})
	}
}

// TestFaultBeforeFirstCheckpointRecovers crashes a worker at superstep 0 or 1,
// before the first periodic checkpoint (at superstep 2): the run rolls back
// to the step-0 baseline the engine saved itself, with no caller-side save.
func TestFaultBeforeFirstCheckpointRecovers(t *testing.T) {
	g := chaosGraph()
	for _, eng := range append(engines, engine{"cyclopsmt", cluster.MT(2, 2, 2), runCyclops}) {
		t.Run(eng.name, func(t *testing.T) {
			base := eng.run(t, g, eng.cc, transport.InProcess, nil, nil)
			for _, k := range []int{0, 1} {
				t.Run("k="+strconv.Itoa(k), func(t *testing.T) {
					for _, net := range networks {
						t.Run(net.String(), func(t *testing.T) {
							plan := killPlan(k)
							rec := &recoveryCounter{}
							got := eng.run(t, g, eng.cc, net, &plan, rec)
							if rec.recoveries != 1 {
								t.Fatalf("%d recoveries, want 1", rec.recoveries)
							}
							requireEqualValues(t, base, got)
						})
					}
				})
			}
		})
	}
}

// TestChaosSeededRecovery runs the full seed-derived plan (the same shape the
// CLIs arm via -fault-seed) against every engine. Not every scheduled fault
// necessarily fires — a drop on an idle connection costs nothing — but the
// final values must always equal the fault-free run.
func TestChaosSeededRecovery(t *testing.T) {
	g := chaosGraph()
	seed := chaosSeed(t)
	plan := fault.NewPlan(seed, cluster.Flat(2, 2).Workers(), 1, 6, 3)
	t.Logf("chaos plan (seed %d):\n%s", seed, plan.Encode())
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			base := eng.run(t, g, eng.cc, transport.InProcess, nil, nil)
			for _, net := range networks {
				t.Run(net.String(), func(t *testing.T) {
					rec := &recoveryCounter{}
					got := eng.run(t, g, eng.cc, net, &plan, rec)
					t.Logf("%s over %s: %d recoveries", eng.name, net, rec.recoveries)
					requireEqualValues(t, base, got)
				})
			}
		})
	}
}
