package bsp

import (
	"math"
	"slices"
	"testing"

	"cyclops/internal/graph"
	"cyclops/internal/graph/codectest"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCodecContract: the envelope every BSP message travels in keeps
// graph.Codec's contract over a fixed-width and a variable-width message.
func TestCodecContract(t *testing.T) {
	type fe = envelope[float64]
	codectest.Check(t, envelopeCodec[float64]{inner: graph.Float64Codec{}},
		func(a, b fe) bool { return a.Dst == b.Dst && sameBits(a.Msg, b.Msg) },
		fe{}, fe{Dst: 0, Msg: 0.15}, fe{Dst: math.MaxInt32, Msg: math.NaN()}, fe{Dst: math.MaxUint32, Msg: math.Inf(1)},
		fe{Dst: 1, Msg: math.Copysign(0, -1)}, fe{Dst: 1 << 20, Msg: math.Inf(-1)})

	type ve = envelope[[]float64]
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i) / 3
	}
	codectest.Check(t, envelopeCodec[[]float64]{inner: graph.Float64SliceCodec{}},
		func(a, b ve) bool { return a.Dst == b.Dst && slices.EqualFunc(a.Msg, b.Msg, sameBits) },
		ve{}, ve{Dst: math.MaxInt32, Msg: []float64{}},
		ve{Dst: 9, Msg: []float64{math.NaN(), math.Copysign(0, -1)}}, ve{Dst: 0, Msg: long})
}
