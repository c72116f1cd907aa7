package algorithms

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
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

// Frames carry no span context and no receive-side book is kept: the
// transport's Matrix counts every (sender, receiver) pair at send time, and
// the kernel books only how many messages each worker's drains returned
// (Recv). These tests hold every engine to a span stream that is closed under
// Parent and grows with W, not W², and to a Recv that the per-pair book
// accounts for: bsp's PRS drains the previous superstep's SND (a lag of 1),
// cyclops' RECV and gas' rounds the current one (0).

// stepBook is one superstep's record as the stream test reads it: the
// superstep, the spans it emitted, what each worker drained and what the
// Comm delta says each worker was sent.
type stepBook struct {
	step, spans, workers int
	recv, ingress        []int64
}

// spanStream collects a run's span stream, closed by its run span, and one
// stepBook per superstep record.
type spanStream struct {
	obs.Nop
	run        int64
	spans      []span.Span
	books      []stepBook
	recoveries int
}

func (s *spanStream) OnRunStart(info obs.RunInfo) { s.run = info.Run }

func (s *spanStream) OnSuperstep(rec *obs.StepRecord) {
	n := len(s.spans)
	s.spans = obs.AppendStepSpans(s.spans, rec.Spans)
	s.books = append(s.books, stepBook{step: rec.Step, spans: len(s.spans) - n, workers: len(rec.Recv),
		recv: slices.Clone(rec.Recv), ingress: rec.Comm.Ingress()})
	if rec.Recovery != nil {
		s.recoveries++
	}
}

func (s *spanStream) OnRunEnd(e obs.RunEnd) { s.spans = append(s.spans, obs.RunSpan(s.run, e.Wall)) }

// check holds the stream to its shape: every span's Parent is a span of the
// stream (the run span is the root) and each superstep emits W×(4 or 5) + 1
// spans. On a clean run it also holds Recv to the per-pair book: worker w's
// Recv in superstep s is column w of the Comm delta of superstep s − lag, or
// zero before the run's first superstep.
func (s *spanStream) check(t *testing.T, lag int, clean bool) {
	t.Helper()
	ids := map[int64]bool{}
	for _, sp := range s.spans {
		ids[sp.ID] = true
	}
	for _, sp := range s.spans {
		if sp.Kind != span.Run && !ids[sp.Parent] {
			t.Fatalf("%s span step %d w%d: parent %#x is no span of the stream", sp.Kind, sp.Step, sp.Worker, sp.Parent)
		}
	}
	if len(s.books) == 0 || s.spans[len(s.spans)-1].Kind != span.Run {
		t.Fatalf("%d superstep records and no closing run span", len(s.books))
	}
	sent := map[int][]int64{}
	for _, b := range s.books {
		if b.spans != b.workers*4+1 && b.spans != b.workers*5+1 {
			t.Fatalf("superstep %d emitted %d spans, want %d×4+1 or %d×5+1", b.step, b.spans, b.workers, b.workers)
		}
		sent[b.step] = b.ingress
	}
	if !clean {
		return
	}
	first := s.books[0].step
	for _, b := range s.books {
		want, ok := sent[b.step-lag]
		switch {
		case b.step-lag < 0:
			want = make([]int64, b.workers)
		case !ok && b.step-lag < first:
			continue // sent before this Run began
		case !ok:
			t.Fatalf("superstep %d: no record of superstep %d, whose sends it drains", b.step, b.step-lag)
		}
		if !slices.Equal(b.recv, want) {
			t.Fatalf("superstep %d: Recv %v, but the Comm delta of superstep %d sent %v", b.step, b.recv, b.step-lag, want)
		}
	}
}

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

// TestSpanStream: on every engine, clean in-process and over TCP,
// checkpointed every second superstep and recovering from a seeded fault
// plan, the span stream is closed under Parent and each superstep emits
// W×(4 or 5) + 1 spans; on the clean runs each worker's Recv is what the
// Comm delta sent it lag supersteps back. hama/restored is a Run resumed from
// a checkpoint, whose first drains were sent before it began.
func TestSpanStream(t *testing.T) {
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
				stream.check(t, eng.lag, c.clean)
			})
		}
	}

	t.Run("hama/restored", func(t *testing.T) {
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
		if len(stream.books) != 2 || stream.books[0].step != step {
			t.Fatalf("restored run's records %+v: want supersteps %d and %d", stream.books, step, step+1)
		}
		var drained int64
		for _, r := range stream.books[0].recv {
			drained += r
		}
		if drained == 0 {
			t.Fatal("the restored run's first superstep drained none of the checkpoint's batches")
		}
		stream.check(t, 1, true)
	})
}

// TestRestoredRunTraceHoldsItsOwnSupersteps: every Run returns a trace of its
// own supersteps. A Run after Restore repeats the first Run's supersteps
// into a new trace and leaves the first Run's trace as it was.
func TestRestoredRunTraceHoldsItsOwnSupersteps(t *testing.T) {
	g := gen.PowerLaw(300, 4, 16)
	const steps = 4
	for _, eng := range []struct {
		name string
		runs func(dir string) (first *metrics.Trace, kept []metrics.StepStats, second *metrics.Trace, err error)
	}{
		{"hama", func(dir string) (*metrics.Trace, []metrics.StepStats, *metrics.Trace, error) {
			e, err := bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
				Cluster: cluster.Flat(3, 1), MaxSupersteps: steps, CheckpointDir: dir})
			return runTwice[bsp.State[float64, float64]](e, err, dir)
		}},
		{"cyclops", func(dir string) (*metrics.Trace, []metrics.StepStats, *metrics.Trace, error) {
			e, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
				Cluster: cluster.Flat(3, 1), MaxSupersteps: steps, CheckpointDir: dir})
			return runTwice[cyclops.State[float64, float64]](e, err, dir)
		}},
		{"powergraph", func(dir string) (*metrics.Trace, []metrics.StepStats, *metrics.Trace, error) {
			e, err := gas.New[PRValue, float64](g, NewPageRankGAS(g, steps, 0), gas.Config[PRValue, float64]{
				Cluster: cluster.Flat(3, 1), MaxSupersteps: steps, CheckpointDir: dir, ValCodec: PRValueCodec{}})
			return runTwice[gas.State[PRValue]](e, err, dir)
		}},
	} {
		t.Run(eng.name, func(t *testing.T) {
			first, kept, second, err := eng.runs(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first.Steps, kept) {
				t.Errorf("the second Run changed the first Run's trace: %d supersteps, had %d", len(first.Steps), len(kept))
			}
			if len(second.Steps) != len(kept) || len(kept) != steps {
				t.Fatalf("second Run's trace holds %d supersteps, the first's %d; want %d each", len(second.Steps), len(kept), steps)
			}
			for i, st := range second.Steps {
				if st.Step != kept[i].Step || st.Messages != kept[i].Messages || st.Active != kept[i].Active {
					t.Errorf("superstep %d of the second Run: %+v; the first Run's: %+v", i, st, kept[i])
				}
			}
		})
	}
}

// runTwice runs e, restores it from the step-0 checkpoint its first Run saved
// under dir and runs it again. kept is a copy of the first Run's supersteps,
// taken before the second Run.
func runTwice[S any, E interface {
	observed
	Restore(S) error
}](e E, err error, dir string) (first *metrics.Trace, kept []metrics.StepStats, second *metrics.Trace, _ error) {
	if err != nil {
		return nil, nil, nil, err
	}
	defer e.Close()
	if first, err = e.Run(); err != nil {
		return nil, nil, nil, err
	}
	kept = slices.Clone(first.Steps)
	state, err := checkpoint.Load[S](dir, 0)
	if err == nil {
		err = e.Restore(state)
	}
	if err == nil {
		second, err = e.Run()
	}
	return first, kept, second, err
}

// TestBSPCheckpointBooksNoTraffic: a bsp checkpoint copies the batches the
// engine already holds, so checkpointing every superstep leaves the books —
// transport counters, the series section and the span stream — exactly as a run
// without checkpoints writes them.
func TestBSPCheckpointBooksNoTraffic(t *testing.T) {
	g := gen.PowerLaw(2000, 4, 16)
	record := func(every int) (transport.Snapshot, map[obs.Section][]byte) {
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
		file, err := obs.ReadRecord(root, rec.Manifests()[0].Run)
		if err != nil {
			t.Fatal(err)
		}
		return stats, map[obs.Section][]byte{
			obs.SeriesSection: file.Raw[obs.SeriesSection], obs.SpansSection: file.Raw[obs.SpansSection]}
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
