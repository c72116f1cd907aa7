package superstep

import (
	"errors"
	"fmt"

	"cyclops/internal/checkpoint"
	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/transport"
)

// Options are the run settings every engine Config carries under the same
// names, plus the engine's names, graph and width. New hands them to Open.
type Options struct {
	Name            string // prefixes errors: "bsp", "cyclops", "gas"
	Engine          string // the trace's and the run log's engine name
	Graph           *graph.Graph
	Workers         int
	Network         transport.Network
	MaxSupersteps   int // <= 0: 100
	CheckpointDir   string
	CheckpointEvery int
	Hooks           obs.Hooks
	FaultPlan       *fault.Plan
}

// ErrNoCheckpointDir is Open's error for CheckpointEvery > 0 with nowhere to save.
var ErrNoCheckpointDir = errors.New("CheckpointEvery > 0 needs a CheckpointDir")

// ErrInProcessOnly refuses checkpointing (Open) and Restore (Rewind) over a
// network whose in-flight state a checkpoint cannot capture: on TCP, Drain
// blocks for round markers that never arrive.
var ErrInProcessOnly = errors.New("checkpointing requires the in-process network")

// Shell is what the three engines share around their phase bodies; each
// Engine embeds one. It owns the transport, fault injector, trace, superstep
// counter, checkpoint policy and residual rows, and builds each Run's Kernel.
type Shell[M any] struct {
	// Tr is the engine's transport, behind the fault injector under a FaultPlan.
	Tr transport.Interface[M]
	// Residuals[w] is worker w's residual samples this superstep, emptied and
	// folded into StepStats by the kernel (Config.Residuals).
	Residuals [][]float64

	opt    Options
	inj    Injector // nil without a FaultPlan
	trace  *metrics.Trace
	step   int
	runSeq int64 // observed Runs so far: the span stream's Run id
}

// Open validates the run settings and opens the engine's transport: mode is
// its in-process queue discipline, codec its wire format.
func Open[M any](o Options, mode transport.QueueMode, codec graph.Codec[M]) (Shell[M], error) {
	if o.MaxSupersteps <= 0 {
		o.MaxSupersteps = 100
	}
	if o.CheckpointEvery > 0 && o.CheckpointDir == "" {
		return Shell[M]{}, fmt.Errorf("%s: %w", o.Name, ErrNoCheckpointDir)
	}
	if o.CheckpointDir != "" && o.Network != transport.InProcess {
		return Shell[M]{}, fmt.Errorf("%s: %w", o.Name, ErrInProcessOnly)
	}
	tr, err := transport.New[M](o.Network, o.Workers, mode, nil, codec)
	if err != nil {
		return Shell[M]{}, fmt.Errorf("%s: transport: %w", o.Name, err)
	}
	sh := Shell[M]{Tr: tr, Residuals: make([][]float64, o.Workers), opt: o,
		trace: &metrics.Trace{Engine: o.Engine, Workers: o.Workers}}
	if o.FaultPlan != nil {
		wrapped := fault.Wrap(tr, *o.FaultPlan)
		sh.Tr, sh.inj = wrapped, wrapped
	}
	return sh, nil
}

// Kernel builds one Run's kernel over the shell. lag is how many supersteps
// the engine's drains trail its sends, fixed by its phase order; info supplies
// what the engine alone knows of obs.RunInfo (the shell fills engine,
// workers, vertices and edges); owner is Config.Owner; store is Dir over the
// engine's snapshot and Restore.
func (sh *Shell[M]) Kernel(lag int, info func() obs.RunInfo, owner func(v int) int, store func(dir string) Checkpoints) *Kernel {
	o := &sh.opt
	k := New(Config{
		Name: o.Name, Workers: o.Workers, Vertices: o.Graph.NumVertices(), Hooks: o.Hooks,
		Link: sh.Tr, Injector: sh.inj, Trace: sh.trace, Step: &sh.step, RunSeq: &sh.runSeq,
		MaxSupersteps: o.MaxSupersteps, CheckpointEvery: o.CheckpointEvery,
		Checkpoints: store(o.CheckpointDir), Owner: owner, Residuals: sh.Residuals,
		Info: func() obs.RunInfo {
			i := info()
			i.Engine, i.Workers, i.Vertices, i.Edges = o.Engine, o.Workers, o.Graph.NumVertices(), o.Graph.NumEdges()
			return i
		},
	})
	k.lag = lag
	return k
}

// Rewind is Restore's engine-independent half, called before the state is
// loaded: it checks that each of the state's vertex-indexed slabs (their
// lengths are lens) covers the graph, refuses a network a checkpoint cannot
// capture, discards the aborted superstep's traffic and sets the counter.
func (sh *Shell[M]) Rewind(step int, lens ...int) error {
	for _, n := range lens {
		if n != sh.opt.Graph.NumVertices() {
			return fmt.Errorf("%s: checkpoint shape does not match engine", sh.opt.Name)
		}
	}
	if sh.opt.Network != transport.InProcess {
		return fmt.Errorf("%s: restore: %w", sh.opt.Name, ErrInProcessOnly)
	}
	for w := 0; w < sh.opt.Workers; w++ {
		sh.Tr.Drain(w)
	}
	sh.step = step
	return nil
}

// Graph returns the input graph.
func (sh *Shell[M]) Graph() *graph.Graph { return sh.opt.Graph }

// Close releases transport resources (sockets in TCPLoopback mode).
func (sh *Shell[M]) Close() error { return sh.Tr.Close() }

// TransportStats exposes the raw traffic counters.
func (sh *Shell[M]) TransportStats() transport.Snapshot { return sh.Tr.Stats().Snapshot() }

// Trace returns the per-superstep statistics collected so far.
func (sh *Shell[M]) Trace() *metrics.Trace { return sh.trace }

// Superstep reports the current superstep index.
func (sh *Shell[M]) Superstep() int { return sh.step }

// Bind returns fn(step, e) as a PhaseSet.OnStep, nil for a nil fn.
func Bind[E any](fn func(step int, e E), e E) func(step int) {
	if fn == nil {
		return nil
	}
	return func(step int) { fn(step, e) }
}

// Dir is an engine's checkpoint store for Shell.Kernel: over a CheckpointDir
// (nil for ""), files step-N.ckpt (internal/checkpoint) of snapshot(N),
// restored through restore.
func Dir[S any](snapshot func(step int) S, restore func(S) error) func(dir string) Checkpoints {
	return func(dir string) Checkpoints {
		if dir == "" {
			return nil
		}
		return ckptDir[S]{dir, snapshot, restore}
	}
}

type ckptDir[S any] struct {
	dir      string
	snapshot func(step int) S
	restore  func(S) error
}

// Save writes step's checkpoint and retires every newer one: those belong to
// a history the run abandoned (an earlier epoch whose counter ran further, or
// the future a Restore rewound), and Recover must never load them.
func (d ckptDir[S]) Save(step int) error {
	if err := checkpoint.Save(d.dir, step, d.snapshot(step)); err != nil {
		return err
	}
	return checkpoint.Retire(d.dir, step)
}

func (d ckptDir[S]) Recover() error {
	s, _, err := checkpoint.LoadLatest[S](d.dir)
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}
	return d.restore(s)
}
