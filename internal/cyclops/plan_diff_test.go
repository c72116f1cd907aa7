package cyclops_test

// Differential harness for the static send plan and positional sync frames —
// the seed of ROADMAP item 2's, scoped to this change. Grid: random small
// graphs × {hash, multilevel} × {2×1, 3×1, 2×2 T2/R2} × {in-process, TCP
// loopback} × {PageRank, SSSP, a max propagation that publishes with mixed
// activation}, every run audited. Per cell:
//
//  1. the values equal the sequential reference;
//  2. the frames carry the parent's messages: within a superstep a sender
//     syncs a master to every worker replicating it (read off the graph and
//     the assignment, not the plan) or to none, each frame in ascending
//     vertex order, and the transport's messages are those frames' entries;
//  3. TCP wire − in-process wire = round markers × FrameHeaderBytes;
//  4. every frame costs its header plus the smaller of its two layouts.
//
// A failing cell prints the -run pattern that replays it.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// mixedProg is max propagation whose odd vertices also republish an
// unchanged value without activating anyone, so one frame can carry
// activating and quiet entries side by side.
type mixedProg struct{}

func (mixedProg) Init(id graph.ID, _ *graph.Graph) (float64, float64, bool) {
	return float64(id), float64(id), true
}

func (mixedProg) Compute(ctx *cyclops.Context[float64, float64]) {
	view, srcs, _ := ctx.In()
	best := ctx.Value()
	for _, s := range srcs {
		best = max(best, view[s])
	}
	switch {
	case best > ctx.Value() || ctx.Superstep() == 0:
		ctx.SetValue(best)
		ctx.Publish(best, true)
	case ctx.Vertex()%2 == 1:
		ctx.Publish(best, false)
	}
}

// ancestorMaxRef is the fixpoint mixedProg reaches: every vertex holds the
// largest id that reaches it.
func ancestorMaxRef(g *graph.Graph) []float64 {
	val := make([]float64, g.NumVertices())
	for v := range val {
		val[v] = float64(v)
	}
	for changed := true; changed; {
		changed = false
		for u := range val {
			for _, v := range g.OutNeighbors(graph.ID(u)) {
				if val[u] > val[v] {
					val[v], changed = val[u], true
				}
			}
		}
	}
	return val
}

func diffGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(60)
	b := graph.NewBuilder(n)
	for i, m := 0, n+rng.Intn(3*n); i < m; i++ {
		b.AddWeightedEdge(graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n)), float64(1+rng.Intn(9)))
	}
	return b.MustBuild()
}

type diffRun struct {
	values []float64
	stats  transport.Snapshot
	steps  int
	frames []cyclops.Frame
}

func TestSendPlanDifferential(t *testing.T) {
	const prIters = 10
	programs := []struct {
		name  string
		prog  cyclops.Program[float64, float64]
		steps func(*graph.Graph) int
		ref   func(*graph.Graph) []float64
	}{
		{"PageRank", algorithms.PageRankCyclops{}, func(*graph.Graph) int { return prIters },
			func(g *graph.Graph) []float64 { return algorithms.PageRankRef(g, prIters) }},
		{"SSSP", algorithms.SSSPCyclops{Source: 0}, func(g *graph.Graph) int { return g.NumVertices() + 1 },
			func(g *graph.Graph) []float64 { return algorithms.SSSPRef(g, 0) }},
		{"mixed", mixedProg{}, func(g *graph.Graph) int { return 10 * g.NumVertices() }, ancestorMaxRef},
	}
	parts := []partition.Partitioner{partition.Hash{}, partition.Multilevel{Seed: 1}}
	shapes := []cluster.Config{cluster.Flat(2, 1), cluster.Flat(3, 1),
		{Machines: 2, WorkersPerMachine: 2, Threads: 2, Receivers: 2}}
	mixedFrames := 0
	for seed := int64(1); seed <= 3; seed++ {
		g := diffGraph(seed)
		for _, pg := range programs {
			want := pg.ref(g)
			for _, part := range parts {
				for _, shape := range shapes {
					name := fmt.Sprintf("seed%d_%s_%s_%dx%dT%dR%d", seed, pg.name, part.Name(),
						shape.Machines, shape.WorkersPerMachine, shape.Threads, shape.Receivers)
					replay := fmt.Sprintf("replay: go test ./internal/cyclops -run 'TestSendPlanDifferential/^%s$'", name)
					t.Run(name, func(t *testing.T) {
						runs := make([]diffRun, 2)
						for i, network := range []transport.Network{transport.InProcess, transport.TCPLoopback} {
							e, err := cyclops.New[float64, float64](g, pg.prog, cyclops.Config[float64, float64]{
								Cluster: shape, Partitioner: part, MaxSupersteps: pg.steps(g), Network: network, Audit: true,
							})
							if err != nil {
								t.Fatalf("%v\n%s", err, replay)
							}
							var mu sync.Mutex
							e.TapFrames(func(f cyclops.Frame) {
								mu.Lock()
								runs[i].frames = append(runs[i].frames, f)
								mu.Unlock()
							})
							tr, err := e.Run()
							if err != nil {
								t.Fatalf("%s: %v\n%s", network, err, replay)
							}
							runs[i].values, runs[i].stats, runs[i].steps = e.Values(), e.TransportStats(), len(tr.Steps)
							checkFrames(t, replay, g, e.Assignment(), runs[i])
							e.Close()
							for v, x := range runs[i].values {
								if x != want[v] {
									t.Fatalf("%s: vertex %d = %g, reference %g\n%s", network, v, x, want[v], replay)
								}
							}
						}
						local, tcp := runs[0], runs[1]
						if tcp.steps != local.steps || tcp.stats.Messages != local.stats.Messages {
							t.Fatalf("tcp %d steps / %+v, in-process %d / %+v\n%s", tcp.steps, tcp.stats, local.steps, local.stats, replay)
						}
						w := int64(shape.Workers())
						if got, want := tcp.stats.WireBytes-local.stats.WireBytes, int64(local.steps)*w*(w-1)*transport.FrameHeaderBytes; got != want {
							t.Fatalf("wire tcp − in-process = %d, want %d steps' markers = %d\n%s", got, local.steps, want, replay)
						}
						for _, f := range local.frames {
							if slices.Contains(f.Activate, true) && slices.Contains(f.Activate, false) {
								mixedFrames++
							}
						}
					})
				}
			}
		}
	}
	if mixedFrames == 0 {
		t.Fatal("no frame mixed activating and quiet entries: the activation bitmap never ran")
	}
}

// checkFrames asserts properties 2 and 4 of one run's frames.
func checkFrames(t *testing.T, replay string, g *graph.Graph, assign *partition.Assignment, r diffRun) {
	t.Helper()
	type key struct{ step, from int }
	synced := map[key]map[graph.ID][]int{} // per superstep and sender: vertex → workers its frames reached
	var msgs, wire int64
	for _, f := range r.frames {
		if !slices.IsSorted(f.Vertices) {
			t.Fatalf("frame %d→%d at step %d out of vertex order: %v\n%s", f.From, f.To, f.Step, f.Vertices, replay)
		}
		m := synced[key{f.Step, f.From}]
		if m == nil {
			m = map[graph.ID][]int{}
			synced[key{f.Step, f.From}] = m
		}
		for _, v := range f.Vertices {
			m[v] = append(m[v], f.To)
		}
		n := len(f.Vertices)
		positional := 1 + (f.PlanLen+7)/8 + 8*n
		if slices.Contains(f.Activate, !f.Activate[0]) {
			positional += (n + 7) / 8
		}
		if want := int64(transport.FrameHeaderBytes + min(positional, 1+13*n)); f.Wire != want {
			t.Fatalf("frame %d→%d at step %d (%d of %d plan entries) booked %d B, want %d\n%s",
				f.From, f.To, f.Step, n, f.PlanLen, f.Wire, want, replay)
		}
		msgs += int64(n)
		wire += f.Wire
	}
	for k, m := range synced {
		for v, got := range m {
			var want []int
			for _, u := range g.OutNeighbors(v) {
				if p := assign.Of[u]; p != assign.Of[v] && !slices.Contains(want, p) {
					want = append(want, p)
				}
			}
			slices.Sort(want)
			slices.Sort(got)
			if assign.Of[v] != k.from || !slices.Equal(got, want) {
				t.Fatalf("step %d: worker %d synced vertex %d (master on %d) to %v, its replicas live on %v\n%s",
					k.step, k.from, v, assign.Of[v], got, want, replay)
			}
		}
	}
	if r.stats.Messages != msgs {
		t.Fatalf("transport booked %d msgs, frames carry %d\n%s", r.stats.Messages, msgs, replay)
	}
	if markers := r.stats.WireBytes - wire; markers%transport.FrameHeaderBytes != 0 || markers < 0 {
		t.Fatalf("wire %d B is not the frames' %d B plus whole round markers\n%s", r.stats.WireBytes, wire, replay)
	}
}
