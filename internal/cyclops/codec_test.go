package cyclops

import (
	"math"
	"slices"
	"testing"

	"cyclops/internal/graph"
	"cyclops/internal/graph/codectest"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCodecContract: the sync message every replica update travels in keeps
// graph.Codec's contract over a fixed-width and a variable-width value.
func TestCodecContract(t *testing.T) {
	type fm = syncMsg[float64]
	codectest.Check(t, syncCodec[float64]{inner: graph.Float64Codec{}},
		func(a, b fm) bool { return a.Slot == b.Slot && a.Activate == b.Activate && sameBits(a.Val, b.Val) },
		fm{}, fm{Slot: 0, Val: 0.15, Activate: true}, fm{Slot: math.MaxInt32, Val: math.NaN()},
		fm{Slot: 1, Val: math.Copysign(0, -1), Activate: true}, fm{Slot: 1 << 20, Val: math.Inf(-1)},
		fm{Slot: 255, Val: math.Inf(1), Activate: true})

	type vm = syncMsg[[]float64]
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i) / 3
	}
	codectest.Check(t, syncCodec[[]float64]{inner: graph.Float64SliceCodec{}},
		func(a, b vm) bool {
			return a.Slot == b.Slot && a.Activate == b.Activate && slices.EqualFunc(a.Val, b.Val, sameBits)
		},
		vm{}, vm{Slot: math.MaxInt32, Val: []float64{}, Activate: true},
		vm{Slot: 9, Val: []float64{math.NaN(), math.Copysign(0, -1)}}, vm{Slot: 0, Val: long, Activate: true})
}
