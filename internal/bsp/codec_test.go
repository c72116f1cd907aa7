package bsp

import (
	"math"
	"slices"
	"testing"

	"cyclops/internal/graph"
	"cyclops/internal/graph/codectest"
	"cyclops/internal/transport"
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

	// As a frame body, priced by the in-process transport: 12 bytes an
	// envelope over float64, and over []float64 — no fixed width — each
	// envelope at its own size.
	if f, v := graph.FixedSize[fe](envelopeCodec[float64]{inner: graph.Float64Codec{}}),
		graph.FixedSize[ve](envelopeCodec[[]float64]{inner: graph.Float64SliceCodec{}}); f != 12 || v != 0 {
		t.Errorf("FixedSize over float64 = %d, over []float64 = %d; want 12 and 0", f, v)
	}
	checkBodyPrice(t, envelopeCodec[float64]{inner: graph.Float64Codec{}},
		[]fe{{Dst: 1, Msg: 0.5}, {Dst: 2, Msg: math.NaN()}, {Dst: 3}})
	checkBodyPrice(t, envelopeCodec[[]float64]{inner: graph.Float64SliceCodec{}},
		[]ve{{Dst: 1}, {Dst: 2, Msg: []float64{1, 2, 3}}, {Dst: 3, Msg: long}, {Dst: 4, Msg: []float64{}}})
}

// checkBodyPrice sends batch, and every prefix of it, through an in-process
// transport and compares the wire bytes it books to the frame it would build.
func checkBodyPrice[M any](t *testing.T, c graph.Codec[M], batch []M) {
	t.Helper()
	for n := 1; n <= len(batch); n++ {
		tr := transport.NewLocal[M](2, transport.GlobalQueue, nil, c)
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
