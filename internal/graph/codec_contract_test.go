package graph_test

import (
	"math"
	"slices"
	"testing"

	"cyclops/internal/graph"
	"cyclops/internal/graph/codectest"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCodecContract puts the three codecs this package owns through the one
// measured statement of graph.Codec's contract.
func TestCodecContract(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.15, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7FF8_0000_0000_0001), math.MaxFloat64, math.SmallestNonzeroFloat64}
	codectest.Check(t, graph.Float64Codec{}, sameBits, floats...)

	codectest.Check(t, graph.Int64Codec{}, func(a, b int64) bool { return a == b },
		0, 1, -1, math.MaxInt64, math.MinInt64)

	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i) / 7
	}
	codectest.Check(t, graph.Float64SliceCodec{},
		func(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) },
		nil, []float64{}, []float64{1}, floats, long)
}
