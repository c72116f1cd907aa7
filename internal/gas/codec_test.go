package gas

import (
	"math"
	"slices"
	"testing"

	"cyclops/internal/graph"
	"cyclops/internal/graph/codectest"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVec(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) }

// sameGasMsg compares what a kind puts on the wire: kind and slot always, Val
// on an apply push, Has and Acc on a gather partial. The three request kinds
// carry nothing else, which is why they cost 5 bytes.
func sameGasMsg[V, G any](eqV func(a, b V) bool, eqG func(a, b G) bool) func(a, b gasMsg[V, G]) bool {
	return func(a, b gasMsg[V, G]) bool {
		switch {
		case a.Kind != b.Kind || a.Slot != b.Slot:
			return false
		case a.Kind == kindApplyPush:
			return eqV(a.Val, b.Val)
		case a.Kind == kindGatherPartial:
			return a.Has == b.Has && eqG(a.Acc, b.Acc)
		}
		return true
	}
}

// TestCodecContract: all five §2.3 message kinds, with and without Has, keep
// graph.Codec's contract over fixed-width and variable-width payloads.
func TestCodecContract(t *testing.T) {
	type fm = gasMsg[float64, float64]
	var fixed []fm
	for kind := int8(kindGatherReq); kind <= kindActivate; kind++ {
		for _, has := range []bool{false, true} {
			fixed = append(fixed,
				fm{Kind: kind, Slot: 0, Val: 0.15, Acc: math.Copysign(0, -1), Has: has},
				fm{Kind: kind, Slot: math.MaxInt32, Val: math.NaN(), Acc: math.Inf(-1), Has: has})
		}
	}
	codectest.Check(t, gasCodec[float64, float64]{val: graph.Float64Codec{}, acc: graph.Float64Codec{}},
		sameGasMsg(sameBits, sameBits), fixed...)

	type vm = gasMsg[[]float64, []float64]
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i) / 3
	}
	var vecs []vm
	for kind := int8(kindGatherReq); kind <= kindActivate; kind++ {
		for _, has := range []bool{false, true} {
			vecs = append(vecs,
				vm{Kind: kind, Slot: 0, Has: has},
				vm{Kind: kind, Slot: 7, Val: []float64{}, Acc: []float64{math.NaN()}, Has: has},
				vm{Kind: kind, Slot: math.MaxInt32, Val: long, Acc: long[:3], Has: has})
		}
	}
	codectest.Check(t, gasCodec[[]float64, []float64]{val: graph.Float64SliceCodec{}, acc: graph.Float64SliceCodec{}},
		sameGasMsg(sameVec, sameVec), vecs...)
}
