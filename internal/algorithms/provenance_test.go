package algorithms

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cyclops/internal/bsp"
	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/fault"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// Frames carry no span context: a Deliver span's parent is decided by the
// kernel from the sender the transport reports and the engine's drain lag
// (bsp's PRS drains the previous superstep's SND, cyclops' RECV and gas'
// rounds the current one). These tests hold every engine to that rule.

// spanStream collects a run's span stream and counts its recoveries.
type spanStream struct {
	obs.Nop
	spans      []span.Span
	recoveries int
}

func (s *spanStream) OnSuperstep(rec *obs.StepRecord) {
	s.spans = obs.AppendStepSpans(s.spans, rec.Spans)
}

func (s *spanStream) OnRecovery(obs.RecoveryEvent) { s.recoveries++ }

// runSetup is one observed engine run's settings.
type runSetup struct {
	network       transport.Network
	dir           string
	every         int
	plan          *fault.Plan
	hooks         obs.Hooks
	maxSupersteps int
}

// provenanceEngines runs PageRank on each engine under s, with the engine's
// drain lag.
var provenanceEngines = []struct {
	name string
	lag  int
	run  func(g *graph.Graph, s runSetup) (transport.Snapshot, error)
}{
	{"hama", 1, func(g *graph.Graph, s runSetup) (transport.Snapshot, error) {
		e, err := bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
			Cluster: cluster.Flat(3, 1), MaxSupersteps: s.maxSupersteps, Network: s.network, Hooks: s.hooks,
			CheckpointDir: s.dir, CheckpointEvery: s.every, FaultPlan: s.plan})
		return runObserved(e, err)
	}},
	{"cyclops", 0, func(g *graph.Graph, s runSetup) (transport.Snapshot, error) {
		return runCyclopsPR(g, cluster.Flat(3, 1), s)
	}},
	{"cyclopsmt", 0, func(g *graph.Graph, s runSetup) (transport.Snapshot, error) {
		return runCyclopsPR(g, cluster.MT(3, 2, 2), s)
	}},
	{"powergraph", 0, func(g *graph.Graph, s runSetup) (transport.Snapshot, error) {
		e, err := gas.New[PRValue, float64](g, NewPageRankGAS(g, s.maxSupersteps, 0), gas.Config[PRValue, float64]{
			Cluster: cluster.Flat(3, 1), MaxSupersteps: s.maxSupersteps, Network: s.network, Hooks: s.hooks,
			CheckpointDir: s.dir, CheckpointEvery: s.every, FaultPlan: s.plan, ValCodec: PRValueCodec{}})
		return runObserved(e, err)
	}},
}

func runCyclopsPR(g *graph.Graph, cc cluster.Config, s runSetup) (transport.Snapshot, error) {
	e, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
		Cluster: cc, MaxSupersteps: s.maxSupersteps, Network: s.network, Hooks: s.hooks,
		CheckpointDir: s.dir, CheckpointEvery: s.every, FaultPlan: s.plan})
	return runObserved(e, err)
}

// observed is what runObserved needs of a constructed engine.
type observed interface {
	Run() (*metrics.Trace, error)
	TransportStats() transport.Snapshot
	Close() error
}

func runObserved[E observed](e E, err error) (transport.Snapshot, error) {
	if err != nil {
		return transport.Snapshot{}, err
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		return transport.Snapshot{}, err
	}
	return e.TransportStats(), nil
}

// TestDeliverSpanParents: on every engine, clean, checkpointed every second
// superstep and recovering from a seeded fault plan, every Deliver span's
// parent is a Send or Superstep span of the same run's stream; on a clean
// run, in-process or over TCP, it is the sender's Send span lag supersteps
// back (the superstep span before the run's first send).
func TestDeliverSpanParents(t *testing.T) {
	g := gen.PowerLaw(300, 4, 16)
	plan := fault.NewPlan(7, 3, 1, 4, 3)
	conditions := []struct {
		name  string
		clean bool
		setup func(dir string) runSetup
	}{
		{"clean/in-process", true, func(string) runSetup { return runSetup{network: transport.InProcess} }},
		{"clean/tcp-loopback", true, func(string) runSetup { return runSetup{network: transport.TCPLoopback} }},
		{"checkpoint-every-2", false, func(dir string) runSetup { return runSetup{dir: dir, every: 2} }},
		{"fault-plan", false, func(dir string) runSetup { return runSetup{dir: dir, every: 2, plan: &plan} }},
	}
	for _, eng := range provenanceEngines {
		for _, c := range conditions {
			t.Run(eng.name+"/"+c.name, func(t *testing.T) {
				stream := &spanStream{}
				s := c.setup(t.TempDir())
				s.hooks, s.maxSupersteps = stream, 8
				if _, err := eng.run(g, s); err != nil {
					t.Fatal(err)
				}
				if s.plan != nil && stream.recoveries == 0 {
					t.Fatal("the fault plan never forced a recovery")
				}
				parents := map[int64]bool{}
				for _, sp := range stream.spans {
					if sp.Kind == span.Send || sp.Kind == span.Superstep {
						parents[sp.ID] = true
					}
				}
				delivers := 0
				for _, sp := range stream.spans {
					if sp.Kind != span.Deliver {
						continue
					}
					delivers++
					if !parents[sp.Parent] {
						t.Fatalf("deliver span step %d w%d<-w%d: parent %#x is no send or superstep span of the run",
							sp.Step, sp.Worker, sp.From, sp.Parent)
					}
					want := span.StepID(sp.Step)
					if sp.Step >= eng.lag {
						want = span.SendID(sp.Step-eng.lag, sp.From)
					}
					if c.clean && sp.Parent != want {
						t.Fatalf("deliver span step %d w%d<-w%d: parent %#x, want %#x (lag %d)",
							sp.Step, sp.Worker, sp.From, sp.Parent, want, eng.lag)
					}
				}
				if delivers == 0 {
					t.Fatal("no deliver spans: the run never drained a batch")
				}
			})
		}
	}
}

// TestRestoredRunDeliversUnderItsSuperstep: a Run that starts from a restored
// checkpoint never ran the superstep that sent its first drains, so those
// Deliver spans parent to their own superstep; later ones to the Send spans
// one superstep back.
func TestRestoredRunDeliversUnderItsSuperstep(t *testing.T) {
	g := gen.PowerLaw(300, 4, 16)
	dir := t.TempDir()
	cfg := bsp.Config[float64, float64]{Cluster: cluster.Flat(3, 1), MaxSupersteps: 4,
		CheckpointDir: dir, CheckpointEvery: 2}
	if _, err := runObserved(bsp.New[float64, float64](g, PageRankBSP{}, cfg)); err != nil {
		t.Fatal(err)
	}
	state, step, err := checkpoint.LoadLatest[bsp.State[float64, float64]](dir)
	if err != nil || step != 4 {
		t.Fatalf("latest checkpoint: step %d, %v; want step 4", step, err)
	}
	stream := &spanStream{}
	cfg.MaxSupersteps, cfg.Hooks, cfg.CheckpointDir, cfg.CheckpointEvery = 6, stream, "", 0
	e, err := bsp.New[float64, float64](g, PageRankBSP{}, cfg)
	if err == nil {
		err = e.Restore(state)
	}
	if _, err := runObserved(e, err); err != nil {
		t.Fatal(err)
	}
	delivers := map[int]int{}
	for _, sp := range stream.spans {
		if sp.Kind != span.Deliver {
			continue
		}
		delivers[sp.Step]++
		want := span.SendID(sp.Step-1, sp.From)
		if sp.Step == step {
			want = span.StepID(step)
		}
		if sp.Parent != want {
			t.Fatalf("deliver span step %d w%d<-w%d: parent %#x, want %#x", sp.Step, sp.Worker, sp.From, sp.Parent, want)
		}
	}
	if delivers[step] == 0 || delivers[step+1] == 0 {
		t.Fatalf("deliver spans per superstep %v: want some in supersteps %d and %d", delivers, step, step+1)
	}
}

// TestBSPCheckpointBooksNoTraffic: a bsp checkpoint copies the batches the
// engine already holds, so checkpointing every superstep leaves the books —
// transport counters, series.csv and the span stream — exactly as a run
// without checkpoints writes them.
func TestBSPCheckpointBooksNoTraffic(t *testing.T) {
	g := gen.PowerLaw(2000, 4, 16)
	record := func(every int) (transport.Snapshot, map[string][]byte) {
		root := t.TempDir()
		rec, err := obs.NewRecorder(root)
		if err != nil {
			t.Fatal(err)
		}
		var dir string
		if every > 0 {
			dir = t.TempDir()
		}
		e, err := bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
			Cluster: cluster.Flat(2, 1), MaxSupersteps: 11, Hooks: rec,
			CheckpointDir: dir, CheckpointEvery: every})
		stats, err := runObserved(e, err)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, name := range []string{"series.csv", "spans.csv"} {
			blob, err := os.ReadFile(filepath.Join(root, rec.Manifests()[0].Run, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = blob
		}
		return stats, files
	}
	cleanStats, clean := record(0)
	for _, every := range []int{1, 5} {
		stats, files := record(every)
		if stats != cleanStats {
			t.Errorf("CheckpointEvery %d: transport %+v, without checkpoints %+v", every, stats, cleanStats)
		}
		for name, want := range clean {
			if !bytes.Equal(files[name], want) {
				t.Errorf("CheckpointEvery %d: %s differs from the run without checkpoints%s", every, name,
					firstDiff(files[name], want))
			}
		}
	}
}

// firstDiff names the first differing line of two CSV files.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(g), len(w)); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf(" at line %d:\n%s\nwant\n%s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf(": %d lines, want %d", len(g), len(w))
}
