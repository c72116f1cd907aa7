package algorithms

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"cyclops/internal/aggregate"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gen"
)

// pinHash is FNV-1a over the ranks' math.Float64bits, then the superstep
// and message counts.
func pinHash(values []float64, steps int, msgs int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range values {
		h.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(v)))
	}
	h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(steps)))
	h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(msgs)))
	return h.Sum64()
}

// TestPageRankBSPValuesPinned pins bsp PageRank's ranks bit for bit, its
// supersteps and its messages, in fixed-iteration mode and in eps mode, each
// paired with the global-error halt the harness gives it. The hashes were
// recorded while every vertex still published |Δrank| into the error
// aggregator in fixed-iteration mode too, which nothing reads there.
func TestPageRankBSPValuesPinned(t *testing.T) {
	g := gen.PowerLaw(2000, 6, 3)
	for _, c := range []struct {
		name  string
		eps   float64
		steps int
		want  uint64
	}{
		{"fixed", 0, 21, 0xe09c3caebe0c46f6},
		{"eps", 1e-8, 60, 0x8cd9b5d9e8723626},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := bsp.New[float64, float64](g, PageRankBSP{Eps: c.eps}, bsp.Config[float64, float64]{
				Cluster:       cluster.Flat(2, 2),
				MaxSupersteps: c.steps,
				Halt:          aggregate.GlobalErrorHalt(ErrorAggregator, g.NumVertices(), c.eps),
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := pinHash(e.Values(), len(res.Steps), e.TransportStats().Messages); got != c.want {
				t.Errorf("%s: hash %#x, want %#x (%d supersteps)", c.name, got, c.want, len(res.Steps))
			}
		})
	}
}

// TestPageRankCyclopsValuesPinned is the Figure 5 twin: Cyclops PageRank's
// ranks, supersteps and messages, in fixed-iteration mode and in eps mode
// (with the harness row's Equal), on a flat and a hierarchical cluster. The
// hashes were recorded while every computed vertex still published |Δrank|
// into the error aggregator, which no Cyclops run reads.
func TestPageRankCyclopsValuesPinned(t *testing.T) {
	g := gen.PowerLaw(2000, 6, 3)
	for _, c := range []struct {
		name  string
		cc    cluster.Config
		eps   float64
		steps int
		want  uint64
	}{
		{"fixed/flat", cluster.Flat(2, 2), 0, 20, 0xa8320ed5ccd7d0ed},
		{"fixed/mt", cluster.MT(2, 2, 2), 0, 20, 0xc680d2ee8c4d7f48},
		{"eps/flat", cluster.Flat(2, 2), 1e-8, 60, 0x54a1718562a118b4},
		{"eps/mt", cluster.MT(2, 2, 2), 1e-8, 60, 0xf05aa0903021934e},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := cyclops.Config[float64, float64]{Cluster: c.cc, MaxSupersteps: c.steps}
			if c.eps > 0 {
				cfg.Equal = func(a, b float64) bool { return math.Abs(a-b) < c.eps }
			}
			e, err := cyclops.New[float64, float64](g, PageRankCyclops{Eps: c.eps}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := pinHash(e.Values(), len(res.Steps), e.TransportStats().Messages); got != c.want {
				t.Errorf("%s: hash %#x, want %#x (%d supersteps)", c.name, got, c.want, len(res.Steps))
			}
		})
	}
}
