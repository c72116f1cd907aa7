package algorithms

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"cyclops/internal/aggregate"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/gen"
)

// TestPageRankBSPValuesPinned pins bsp PageRank's ranks bit for bit (FNV-1a
// over math.Float64bits), its supersteps and its messages, in fixed-iteration
// mode and in eps mode, each paired with the global-error halt the harness
// gives it. The hashes were recorded while every vertex still published
// |Δrank| into the error aggregator in fixed-iteration mode too, which nothing
// reads there.
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
			h := fnv.New64a()
			var buf [8]byte
			for _, v := range e.Values() {
				h.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(v)))
			}
			h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(len(res.Steps))))
			h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(e.TransportStats().Messages)))
			if got := h.Sum64(); got != c.want {
				t.Errorf("%s: hash %#x, want %#x (%d supersteps)", c.name, got, c.want, len(res.Steps))
			}
		})
	}
}
