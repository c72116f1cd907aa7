package superstep_test

// Restore through the shell: every Restore's Rewind resets the transport, so
// a live engine over TCP can be restored again and again, and a transport
// that cannot be reset fails the Restore typed.

import (
	"errors"
	"math"
	"testing"
	"time"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/superstep"
	"cyclops/internal/transport"
)

const (
	restoreSteps = 10 // supersteps per run
	restoreFrom  = 4  // the checkpoint the restored runs start from
)

// restoreTwiceAndRun restores e from dir's checkpoint at restoreFrom twice in
// a row when restore is set, then runs it.
func restoreTwiceAndRun[S any](t *testing.T, e interface {
	Restore(S) error
	Run() (*metrics.Trace, error)
}, dir string, restore bool) {
	t.Helper()
	if restore {
		snap, err := checkpoint.Load[S](dir, restoreFrom)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := e.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Each restoreXxx builds PageRank on the engine over net. With save set it
// checkpoints every 2 supersteps into dir and runs fault-free; otherwise it
// restores twice from dir's checkpoint and runs. It returns the values and
// the traffic matrix.

func restoreBSP(t *testing.T, g *graph.Graph, net transport.Network, dir string, save bool) ([]float64, transport.MatrixSnapshot) {
	cfg := bsp.Config[float64, float64]{Cluster: cluster.Flat(2, 2), Network: net, MaxSupersteps: restoreSteps}
	if save {
		cfg.CheckpointDir, cfg.CheckpointEvery = dir, 2
	}
	e, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{Eps: 1e-4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	restoreTwiceAndRun[bsp.State[float64, float64]](t, e, dir, !save)
	return e.Values(), e.Tr.Matrix().Snapshot()
}

func restoreCyclops(t *testing.T, g *graph.Graph, net transport.Network, dir string, save bool) ([]float64, transport.MatrixSnapshot) {
	cfg := cyclops.Config[float64, float64]{Cluster: cluster.Flat(2, 2), Network: net, MaxSupersteps: restoreSteps}
	if save {
		cfg.CheckpointDir, cfg.CheckpointEvery = dir, 2
	}
	e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: 1e-4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	restoreTwiceAndRun[cyclops.State[float64, float64]](t, e, dir, !save)
	return e.Values(), e.Tr.Matrix().Snapshot()
}

func restoreGAS(t *testing.T, g *graph.Graph, net transport.Network, dir string, save bool) ([]float64, transport.MatrixSnapshot) {
	cfg := gas.Config[algorithms.PRValue, float64]{Cluster: cluster.Flat(2, 2), Network: net,
		MaxSupersteps: restoreSteps, ValCodec: algorithms.PRValueCodec{}}
	if save {
		cfg.CheckpointDir, cfg.CheckpointEvery = dir, 2
	}
	e, err := gas.New[algorithms.PRValue, float64](g, algorithms.NewPageRankGAS(g, restoreSteps, 1e-4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	restoreTwiceAndRun[gas.State[algorithms.PRValue]](t, e, dir, !save)
	return algorithms.Ranks(e.Values()), e.Tr.Matrix().Snapshot()
}

// TestRestoreTwiceOverTCP restores a live engine from one checkpoint twice in
// a row, then runs it, on every engine and both networks. Each Restore's
// Rewind must discard what the transport holds — the fresh engine's open
// round 0 (bsp's), then the first Restore's own round — so the values equal
// the fault-free run's bit for bit, and the TCP leg's traffic matrix equals
// the in-process leg's: the same messages per pair, and per pair the same
// wire bytes but for one header per round marker, as many on every pair.
func TestRestoreTwiceOverTCP(t *testing.T) {
	g := gen.PowerLaw(400, 5, 3)
	for _, eng := range []struct {
		name string
		run  func(*testing.T, *graph.Graph, transport.Network, string, bool) ([]float64, transport.MatrixSnapshot)
	}{{"bsp", restoreBSP}, {"cyclops", restoreCyclops}, {"gas", restoreGAS}} {
		t.Run(eng.name, func(t *testing.T) {
			dir := t.TempDir()
			base, _ := eng.run(t, g, transport.InProcess, dir, true)
			var legs [2]transport.MatrixSnapshot
			for i, net := range []transport.Network{transport.InProcess, transport.TCPLoopback} {
				got, m := eng.run(t, g, net, dir, false)
				for v := range base {
					if math.Float64bits(base[v]) != math.Float64bits(got[v]) {
						t.Fatalf("%s: vertex %d is %g after two restores, %g fault-free", net, v, got[v], base[v])
					}
				}
				legs[i] = m
			}
			local, tcp := legs[0], legs[1]
			markers := tcp.Wire[0][1] - local.Wire[0][1]
			if markers <= 0 || markers%transport.FrameHeaderBytes != 0 {
				t.Fatalf("TCP 0→1 carries %d more wire bytes than in-process, want a positive multiple of %d", markers, transport.FrameHeaderBytes)
			}
			for from := range local.Messages {
				for to := range local.Messages[from] {
					want := markers
					if from == to {
						want = 0
					}
					if tcp.Messages[from][to] != local.Messages[from][to] || tcp.Wire[from][to]-local.Wire[from][to] != want {
						t.Fatalf("%d→%d: TCP %d msgs / %d B, in-process %d msgs / %d B (markers: %d B)", from, to,
							tcp.Messages[from][to], tcp.Wire[from][to], local.Messages[from][to], local.Wire[from][to], want)
					}
				}
			}
		})
	}
}

// TestRewindPassesResetErrorUp: a transport that cannot be reset — here a
// closed one, which cannot dial — fails Rewind with its typed dial error, and
// no Drain waits.
func TestRewindPassesResetErrorUp(t *testing.T) {
	sh, err := superstep.Open[int64](superstep.Options{Name: "fake", Graph: gen.PowerLaw(20, 2, 1), Workers: 2,
		Network: transport.TCPLoopback}, transport.PerSenderQueue, graph.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	rerr := sh.Rewind(3)
	var te *transport.Error
	if !errors.As(rerr, &te) || te.Op != "dial" || !errors.Is(rerr, transport.ErrClosed) {
		t.Fatalf("Rewind = %v, want the transport's typed dial error", rerr)
	}
	if sh.Superstep() != 0 {
		t.Fatalf("a failed Rewind moved the counter to %d", sh.Superstep())
	}
	for w := 0; w < 2; w++ {
		done := make(chan struct{})
		go func() { sh.Tr.Drain(w); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Drain(%d) hung after a failed Rewind", w)
		}
	}
}
