package algorithms

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/superstep"
	"cyclops/internal/transport"
)

// These tests run the engines over real TCP loopback sockets — the same
// binary frames the in-process transport prices — and require identical
// results and identical books: the distributed immutable view must not care
// what carries its sync messages, and neither must the accounting.

// books is what one engine run reports about its traffic.
type books struct {
	stats transport.Snapshot
	steps int
}

// checkSameBooks asserts the two networks booked one run identically: same
// messages, and a socket wire total that exceeds the
// in-process one by exactly the round markers — one frame header from every
// worker to every other, roundsPerStep times a superstep (plus any priming
// rounds).
func checkSameBooks(t *testing.T, local, tcp books, workers, roundsPerStep, priming int) {
	t.Helper()
	if tcp.steps != local.steps || tcp.stats.Messages != local.stats.Messages {
		t.Fatalf("tcp ran %d steps / %d msgs, in-process %d / %d",
			tcp.steps, tcp.stats.Messages, local.steps, local.stats.Messages)
	}
	markers := int64((roundsPerStep*tcp.steps + priming) * workers * (workers - 1))
	if got := tcp.stats.WireBytes - local.stats.WireBytes; got != markers*transport.FrameHeaderBytes {
		t.Fatalf("wire_tcp − wire_local = %d − %d = %d, want %d markers × %d B = %d",
			tcp.stats.WireBytes, local.stats.WireBytes, got, markers, transport.FrameHeaderBytes,
			markers*transport.FrameHeaderBytes)
	}
	if tcp.stats.Encodes < markers || local.stats.Encodes != 0 {
		t.Fatalf("frame encodes: tcp %d (want ≥ the %d markers), in-process %d (prices frames, never builds them)",
			tcp.stats.Encodes, markers, local.stats.Encodes)
	}
}

func TestCyclopsPageRankOverTCP(t *testing.T) {
	g := gen.PowerLaw(300, 4, 15)
	run := func(network transport.Network) ([]float64, books) {
		e, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
			Cluster:       cluster.Flat(3, 1),
			MaxSupersteps: 8,
			Network:       network,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return e.Values(), books{e.TransportStats(), len(tr.Steps)}
	}
	local, lb := run(transport.InProcess)
	tcp, tb := run(transport.TCPLoopback)
	for v := range local {
		if local[v] != tcp[v] {
			t.Fatalf("vertex %d: in-process %g vs tcp %g", v, local[v], tcp[v])
		}
	}
	checkSameBooks(t, lb, tb, 3, 1, 0)
}

func TestBSPPageRankOverTCP(t *testing.T) {
	g := gen.PowerLaw(300, 4, 16)
	run := func(network transport.Network) ([]float64, books) {
		e, err := bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
			Cluster:       cluster.Flat(3, 1),
			MaxSupersteps: 8,
			Network:       network,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), e.Values()...), books{e.TransportStats(), len(tr.Steps)}
	}
	local, lb := run(transport.InProcess)
	tcp, tb := run(transport.TCPLoopback)
	for v := range local {
		// BSP sums messages in drain order, which both networks fix as
		// (sender, send): the sums agree to the bit.
		if math.Float64bits(local[v]) != math.Float64bits(tcp[v]) {
			t.Fatalf("vertex %d: in-process %g vs tcp %g", v, local[v], tcp[v])
		}
	}
	// BSP self-sends every superstep — priced as frames on both networks —
	// New primes round 0 with one marker round before the first superstep.
	checkSameBooks(t, lb, tb, 3, 1, 1)
}

func TestGASSSSPOverTCP(t *testing.T) {
	g := gen.Road(8, 8, 0.05, 4)
	want := SSSPRef(g, 0)
	run := func(network transport.Network) books {
		e, err := gas.New[float64, float64](g, SSSPGAS{Source: 0}, gas.Config[float64, float64]{
			Cluster:       cluster.Flat(3, 1),
			MaxSupersteps: 300,
			Network:       network,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := e.Values()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v vertex %d: %g, want %g", network, v, got[v], want[v])
			}
		}
		return books{e.TransportStats(), len(tr.Steps)}
	}
	// Five message rounds per superstep (§2.3's per-mirror messages).
	checkSameBooks(t, run(transport.InProcess), run(transport.TCPLoopback), 3, 5, 0)
}

// TestGASPageRankOverTCP is pr-web-gas' shape: PRValueCodec values and
// float64 accumulators, both fixed-width, so in-process every frame is priced
// by gas' one-pass BodySize and over TCP by the bytes it writes.
func TestGASPageRankOverTCP(t *testing.T) {
	g := gen.PowerLaw(300, 4, 17)
	run := func(network transport.Network) ([]float64, books) {
		e, err := gas.New[PRValue, float64](g, NewPageRankGAS(g, 8, 0), gas.Config[PRValue, float64]{
			Cluster:       cluster.Flat(3, 1),
			MaxSupersteps: 8,
			Network:       network,
			ValCodec:      PRValueCodec{},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return Ranks(e.Values()), books{e.TransportStats(), len(tr.Steps)}
	}
	local, lb := run(transport.InProcess)
	tcp, tb := run(transport.TCPLoopback)
	for v := range local {
		// Masters fold partials in drain order, which both networks fix as
		// (sender, send): the ranks agree to the bit.
		if math.Float64bits(local[v]) != math.Float64bits(tcp[v]) {
			t.Fatalf("vertex %d: in-process %g vs tcp %g", v, local[v], tcp[v])
		}
	}
	checkSameBooks(t, lb, tb, 3, 5, 0)
}

// TestBSPALSOverTCP: ALSMsgCodec has no fixed width, so both networks price
// its envelopes message by message.
func TestBSPALSOverTCP(t *testing.T) {
	g := gen.Bipartite(40, 8, 4, 7)
	cfg := ALSConfig{Users: 40, D: 3, Lambda: 0.05, Sweeps: 2}
	want := ALSRef(g, cfg)
	run := func(network transport.Network) books {
		e, err := bsp.New[[]float64, ALSMsg](g, ALSBSP{Cfg: cfg}, bsp.Config[[]float64, ALSMsg]{
			Cluster:       cluster.Flat(3, 1),
			MaxSupersteps: cfg.TotalSupersteps() + 4,
			Network:       network,
			MsgCodec:      ALSMsgCodec{},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := e.Values()
		for v := range want {
			for i := range want[v] {
				if math.Abs(got[v][i]-want[v][i]) > 1e-9 {
					t.Fatalf("%v vertex %d dim %d: %g vs %g", network, v, i, got[v][i], want[v][i])
				}
			}
		}
		return books{e.TransportStats(), len(tr.Steps)}
	}
	checkSameBooks(t, run(transport.InProcess), run(transport.TCPLoopback), 3, 1, 1)
}

func TestCyclopsMTALSOverTCP(t *testing.T) {
	g := gen.Bipartite(40, 8, 4, 6)
	cfg := ALSConfig{Users: 40, D: 3, Lambda: 0.05, Sweeps: 2}
	want := ALSRef(g, cfg)
	run := func(network transport.Network) books {
		e, err := cyclops.New[[]float64, []float64](g, ALSCyclops{Cfg: cfg},
			cyclops.Config[[]float64, []float64]{
				Cluster:       cluster.MT(2, 3, 2),
				MaxSupersteps: cfg.TotalSupersteps(),
				// Variable-size messages: the codec prices them the same on
				// both networks.
				Network: network,
			})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tr, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := e.Values()
		for v := range want {
			for i := range want[v] {
				if math.Abs(got[v][i]-want[v][i]) > 1e-9 {
					t.Fatalf("%v vertex %d dim %d: %g vs %g", network, v, i, got[v][i], want[v][i])
				}
			}
		}
		return books{e.TransportStats(), len(tr.Steps)}
	}
	checkSameBooks(t, run(transport.InProcess), run(transport.TCPLoopback), 2, 1, 0)
}

// TestEnginesRejectUncodedMessageType: every run has a wire format, so a
// message type graph.CodecFor does not know is a construction error until the
// Config names a codec — not a silent fallback to some other encoding.
func TestEnginesRejectUncodedMessageType(t *testing.T) {
	g := gen.PowerLaw(50, 3, 2)
	if _, err := cyclops.New[int64, []graph.ID](g, TrianglesCyclops{}, cyclops.Config[int64, []graph.ID]{}); err == nil {
		t.Error("cyclops: []graph.ID messages without MsgCodec must be rejected")
	}
	if _, err := bsp.New[int64, []graph.ID](g, TrianglesBSP{}, bsp.Config[int64, []graph.ID]{}); err == nil {
		t.Error("bsp: []graph.ID messages without MsgCodec must be rejected")
	}
	if _, err := gas.New[PRValue, float64](g, NewPageRankGAS(g, 5, 0), gas.Config[PRValue, float64]{}); err == nil {
		t.Error("gas: PRValue values without ValCodec must be rejected")
	}
	if e, err := gas.New[PRValue, float64](g, NewPageRankGAS(g, 5, 0), gas.Config[PRValue, float64]{ValCodec: PRValueCodec{}}); err != nil {
		t.Errorf("gas: a named ValCodec plus a derived float64 AccCodec must construct: %v", err)
	} else {
		e.Close()
	}
}

// checkpointBuilds maps each engine's name to a function that constructs it
// on g and, with restore set, restores a state of the right shape into it.
func checkpointBuilds(g *graph.Graph) map[string]func(net transport.Network, dir string, every int, restore bool) error {
	n := g.NumVertices()
	return map[string]func(net transport.Network, dir string, every int, restore bool) error{
		"cyclops": func(net transport.Network, dir string, every int, restore bool) error {
			e, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
				Network: net, CheckpointDir: dir, CheckpointEvery: every})
			if err != nil {
				return err
			}
			defer e.Close()
			if restore {
				return e.Restore(cyclops.State[float64, float64]{
					Step: 1, Values: make([]float64, n), View: make([]float64, n), Active: make([]bool, n)})
			}
			return nil
		},
		"bsp": func(net transport.Network, dir string, every int, restore bool) error {
			e, err := bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
				Network: net, CheckpointDir: dir, CheckpointEvery: every})
			if err != nil {
				return err
			}
			defer e.Close()
			if restore {
				return e.Restore(bsp.State[float64, float64]{Step: 1, Values: make([]float64, n), Halted: make([]bool, n)})
			}
			return nil
		},
		"gas": func(net transport.Network, dir string, every int, restore bool) error {
			e, err := gas.New[PRValue, float64](g, NewPageRankGAS(g, 5, 0), gas.Config[PRValue, float64]{
				Network: net, CheckpointDir: dir, CheckpointEvery: every, ValCodec: PRValueCodec{}})
			if err != nil {
				return err
			}
			defer e.Close()
			if restore {
				return e.Restore(gas.State[PRValue]{Step: 1, Values: make([]PRValue, n), Active: make([]bool, n)})
			}
			return nil
		},
	}
}

// TestCheckpointConfig: every engine takes a checkpoint directory with or
// without a cadence (none: the baseline only) on both networks and restores a
// state there, and rejects a cadence with nowhere to save as a typed error
// that names the engine.
func TestCheckpointConfig(t *testing.T) {
	for name, build := range checkpointBuilds(gen.PowerLaw(50, 3, 2)) {
		dir := t.TempDir()
		if err := build(transport.InProcess, dir, 0, true); err != nil {
			t.Errorf("%s: a directory with no cadence (baseline only) must construct and restore: %v", name, err)
		}
		if err := build(transport.TCPLoopback, dir, 2, true); err != nil {
			t.Errorf("%s: checkpointing over TCP must construct and restore: %v", name, err)
		}
		if err := build(transport.InProcess, "", 2, false); !errors.Is(err, superstep.ErrNoCheckpointDir) ||
			!strings.HasPrefix(err.Error(), name+": ") {
			t.Errorf("%s: CheckpointEvery with no CheckpointDir: %v, want ErrNoCheckpointDir", name, err)
		}
	}
}
