package gas

import (
	"math"
	"slices"
	"testing"

	"cyclops/internal/graph"
	"cyclops/internal/graph/codectest"
	"cyclops/internal/transport"
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
	codectest.Check(t, newGasCodec[float64, float64](graph.Float64Codec{}, graph.Float64Codec{}),
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
	codectest.Check(t, newGasCodec[[]float64, []float64](graph.Float64SliceCodec{}, graph.Float64SliceCodec{}),
		sameGasMsg(sameVec, sameVec), vecs...)

	// As a frame body: the in-process transport prices a batch mixing all
	// five kinds at exactly the bytes its messages encode to, with the
	// widths multiplied out (float64) or asked per message ([]float64).
	checkBodyPrice(t, newGasCodec[float64, float64](graph.Float64Codec{}, graph.Float64Codec{}), fixed)
	checkBodyPrice(t, newGasCodec[[]float64, []float64](graph.Float64SliceCodec{}, graph.Float64SliceCodec{}), vecs)
	type mixed = gasMsg[float64, []float64]
	checkBodyPrice(t, newGasCodec[float64, []float64](graph.Float64Codec{}, graph.Float64SliceCodec{}), []mixed{
		{Kind: kindGatherReq}, {Kind: kindGatherPartial, Acc: long[:5], Has: true}, {Kind: kindApplyPush, Val: 1},
		{Kind: kindScatterReq}, {Kind: kindActivate}, {Kind: kindGatherPartial}, {Kind: kindApplyPush}})
}

// checkBodyPrice sends batch, and every prefix of it, through an in-process
// transport and compares the wire bytes it books to the frame it would build.
func checkBodyPrice[M any](t *testing.T, c graph.Codec[M], batch []M) {
	t.Helper()
	for n := 1; n <= len(batch); n++ {
		tr := transport.NewLocal[M](2, transport.GlobalQueue, c)
		tr.Send(0, 1, batch[:n])
		var body []byte
		for _, m := range batch[:n] {
			body = c.Append(body, m)
		}
		if got := tr.Stats().WireBytes() - transport.FrameHeaderBytes; got != int64(len(body)) {
			t.Fatalf("%T: %d-message body priced at %d bytes, encodes to %d", c, n, got, len(body))
		}
	}
}
