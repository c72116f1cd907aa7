package algorithms

import (
	"errors"
	"math"
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
// messages, same payload bytes, and a socket wire total that exceeds the
// in-process one by exactly the round markers — one frame header from every
// worker to every other, roundsPerStep times a superstep (plus any priming
// rounds).
func checkSameBooks(t *testing.T, local, tcp books, workers, roundsPerStep, priming int) {
	t.Helper()
	if tcp.steps != local.steps || tcp.stats.Messages != local.stats.Messages || tcp.stats.Bytes != local.stats.Bytes {
		t.Fatalf("tcp ran %d steps / %d msgs / %d payload B, in-process %d / %d / %d",
			tcp.steps, tcp.stats.Messages, tcp.stats.Bytes, local.steps, local.stats.Messages, local.stats.Bytes)
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
		// BSP sums messages in arrival order, which differs between the
		// transports; allow last-ulp noise only.
		if math.Abs(local[v]-tcp[v]) > 1e-15 {
			t.Fatalf("vertex %d: in-process %g vs tcp %g", v, local[v], tcp[v])
		}
	}
	// BSP self-sends every superstep — priced as frames on both networks —
	// and primes round 0 with one marker round before the first superstep.
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
		// Masters fold partials in arrival order, which differs between the
		// transports; allow last-ulp noise only.
		if math.Abs(local[v]-tcp[v]) > 1e-15 {
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
				Network:       network,
				// Variable-size messages, priced as the harness prices them:
				// payload must not depend on the network either.
				SizeOfMsg: func(m []float64) int64 { return int64(8 * len(m)) },
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
	local, tcp := run(transport.InProcess), run(transport.TCPLoopback)
	if want := (5 + 8*int64(cfg.D)) * local.stats.Messages; local.stats.Bytes != want {
		t.Fatalf("payload %d B, want SizeOfMsg's (5 + 8×%d) × %d msgs = %d", local.stats.Bytes, cfg.D, local.stats.Messages, want)
	}
	checkSameBooks(t, local, tcp, 2, 1, 0)
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

// TestCheckpointConfig: every engine takes a checkpoint directory with or
// without a cadence (none: the baseline only), rejects a cadence with nowhere
// to save as a typed error, and rejects checkpointing over TCP.
func TestCheckpointConfig(t *testing.T) {
	g := gen.PowerLaw(50, 3, 2)
	closing := func(e interface{ Close() error }, err error) error {
		if err == nil {
			e.Close()
		}
		return err
	}
	engines := map[string]func(net transport.Network, dir string, every int) error{
		"cyclops": func(net transport.Network, dir string, every int) error {
			e, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
				Network: net, CheckpointDir: dir, CheckpointEvery: every})
			return closing(e, err)
		},
		"bsp": func(net transport.Network, dir string, every int) error {
			e, err := bsp.New[float64, float64](g, PageRankBSP{}, bsp.Config[float64, float64]{
				Network: net, CheckpointDir: dir, CheckpointEvery: every})
			return closing(e, err)
		},
		"gas": func(net transport.Network, dir string, every int) error {
			e, err := gas.New[PRValue, float64](g, NewPageRankGAS(g, 5, 0), gas.Config[PRValue, float64]{
				Network: net, CheckpointDir: dir, CheckpointEvery: every, ValCodec: PRValueCodec{}})
			return closing(e, err)
		},
	}
	for name, build := range engines {
		dir := t.TempDir()
		if err := build(transport.InProcess, dir, 0); err != nil {
			t.Errorf("%s: a directory with no cadence (baseline only) must construct: %v", name, err)
		}
		if err := build(transport.InProcess, "", 2); !errors.Is(err, superstep.ErrNoCheckpointDir) {
			t.Errorf("%s: CheckpointEvery with no CheckpointDir: %v, want ErrNoCheckpointDir", name, err)
		}
		if err := build(transport.TCPLoopback, dir, 2); err == nil || errors.Is(err, superstep.ErrNoCheckpointDir) {
			t.Errorf("%s: checkpointing over TCP: %v, want the in-process refusal", name, err)
		}
	}
}

func TestRestoreRequiresInProcess(t *testing.T) {
	g := gen.PowerLaw(50, 3, 2)
	e, err := cyclops.New[float64, float64](g, PageRankCyclops{}, cyclops.Config[float64, float64]{
		Network: transport.TCPLoopback,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	n := g.NumVertices()
	err = e.Restore(cyclops.State[float64, float64]{
		Step: 1, Values: make([]float64, n), View: make([]float64, n), Active: make([]bool, n),
	})
	if err == nil {
		t.Error("restore over TCP must be rejected")
	}
}
