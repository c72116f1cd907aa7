package checkpoint_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
)

// The three engines over one small graph; a dir makes them checkpoint every
// 2 supersteps.

func cyclopsEngine(g *graph.Graph, dir string) (*cyclops.Engine[float64, float64], error) {
	return cyclops.New[float64, float64](g, algorithms.PageRankCyclops{}, cyclops.Config[float64, float64]{
		Cluster: cluster.Flat(2, 1), MaxSupersteps: 3, CheckpointDir: dir, CheckpointEvery: every(dir),
	})
}

func bspEngine(g *graph.Graph, dir string) (*bsp.Engine[float64, float64], error) {
	return bsp.New[float64, float64](g, algorithms.PageRankBSP{}, bsp.Config[float64, float64]{
		Cluster: cluster.Flat(2, 1), MaxSupersteps: 3, CheckpointDir: dir, CheckpointEvery: every(dir),
	})
}

func gasEngine(g *graph.Graph, dir string) (*gas.Engine[algorithms.PRValue, float64], error) {
	return gas.New[algorithms.PRValue, float64](g, algorithms.NewPageRankGAS(g, 3, 0), gas.Config[algorithms.PRValue, float64]{
		Cluster: cluster.Flat(2, 1), MaxSupersteps: 3, CheckpointDir: dir, CheckpointEvery: every(dir),
		ValCodec: algorithms.PRValueCodec{},
	})
}

func every(dir string) int {
	if dir == "" {
		return 0
	}
	return 2
}

// runOnce runs a freshly built engine to completion.
func runOnce[E interface {
	Run() (*metrics.Trace, error)
	Close() error
}](e E, err error) error {
	if err != nil {
		return err
	}
	_, err = e.Run()
	return errors.Join(err, e.Close())
}

// restoreFrom loads dir's step-0 file as e's State and, when it decodes,
// restores it into e, which may accept or reject it.
func restoreFrom[S any](dir string, e interface{ Restore(S) error }) {
	if s, err := checkpoint.Load[S](dir, 0); err == nil {
		_ = e.Restore(s)
	}
}

func must[E any](e E, err error) E {
	if err != nil {
		panic(err)
	}
	return e
}

// FuzzCheckpointLoad feeds arbitrary bytes to checkpoint decoding as an
// engine's step-000000.ckpt: Load returns a State or an error, and a State
// that loads is accepted or rejected by the engine's Restore — never a panic.
// The seeds are the superstep-2 checkpoints each engine really saves (bsp's
// carries pending messages).
func FuzzCheckpointLoad(f *testing.F) {
	g := gen.PowerLaw(40, 3, 1)
	for kind, run := range []func(dir string) error{
		func(dir string) error { return runOnce(cyclopsEngine(g, dir)) },
		func(dir string) error { return runOnce(bspEngine(g, dir)) },
		func(dir string) error { return runOnce(gasEngine(g, dir)) },
	} {
		dir := f.TempDir()
		if err := run(dir); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, "step-000002.ckpt"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(kind), blob)
	}
	// Restore overwrites every piece of state it accepts, so one engine of
	// each kind serves every input as a fresh one would — and New, whose
	// goroutines make coverage noisy, stays out of the fuzzed path.
	c, b, p := must(cyclopsEngine(g, "")), must(bspEngine(g, "")), must(gasEngine(g, ""))
	restore := []func(dir string){
		func(dir string) { restoreFrom(dir, c) },
		func(dir string) { restoreFrom(dir, b) },
		func(dir string) { restoreFrom(dir, p) },
	}
	f.Fuzz(func(t *testing.T, kind uint8, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "step-000000.ckpt"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		restore[int(kind)%len(restore)](dir)
	})
}
